package distrib

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// ioTransport speaks the sequential line protocol over a writer/reader pair,
// with a background reader goroutine so Send can enforce a deadline.
type ioTransport struct {
	w     io.Writer
	lines chan []byte
	rdErr chan error
	close func() error
}

// newIOTransport starts the reader goroutine. closeFn tears down the
// underlying connection (may be nil).
func newIOTransport(w io.Writer, r io.Reader, closeFn func() error) *ioTransport {
	t := &ioTransport{w: w, lines: make(chan []byte, 4), rdErr: make(chan error, 1), close: closeFn}
	go func() {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), maxLine)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			t.lines <- line
		}
		err := sc.Err()
		if err == nil {
			err = io.EOF
		}
		t.rdErr <- err
		close(t.lines)
	}()
	return t
}

// Send writes one request line and waits for its response under the
// deadline. A stale response (a lower ID, from an attempt that timed out
// after the worker had already answered) is discarded; the retry that
// re-sent the same ID consumes the replayed response instead.
func (t *ioTransport) Send(req *Request, timeout time.Duration) (*Response, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if _, err := t.w.Write(data); err != nil {
		return nil, fmt.Errorf("distrib: send request %d: %w", req.ID, err)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case line, ok := <-t.lines:
			if !ok {
				return nil, fmt.Errorf("distrib: connection closed awaiting response %d: %w", req.ID, <-t.rdErr)
			}
			var resp Response
			if err := json.Unmarshal(line, &resp); err != nil {
				return nil, fmt.Errorf("distrib: bad response line: %w", err)
			}
			if resp.ID < req.ID {
				continue // stale answer to a timed-out attempt
			}
			return &resp, nil
		case <-deadline.C:
			return nil, fmt.Errorf("distrib: request %d timed out after %v", req.ID, timeout)
		}
	}
}

func (t *ioTransport) Close() error {
	if t.close != nil {
		return t.close()
	}
	return nil
}

// ProcTransport runs a worker as a subprocess, protocol over its stdio.
type ProcTransport struct {
	*ioTransport
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// NewProcTransport starts the prepared command (argv/env set by the caller;
// its stdin/stdout must be unset) and connects the protocol to its stdio.
// The child's stderr passes through to the parent's.
func NewProcTransport(cmd *exec.Cmd) (*ProcTransport, error) {
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &ProcTransport{cmd: cmd, stdin: stdin}
	p.ioTransport = newIOTransport(stdin, stdout, p.teardown)
	return p, nil
}

// Process exposes the worker process (the smoke harness SIGKILLs through it).
func (p *ProcTransport) Process() *os.Process { return p.cmd.Process }

// teardown closes stdin (the worker exits on EOF) and reaps the process,
// killing it if it lingers.
func (p *ProcTransport) teardown() error {
	_ = p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
		return nil // exit status is irrelevant: a SIGKILLed worker is expected to die non-zero
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("distrib: worker %d had to be killed at close", p.cmd.Process.Pid)
	}
}

// PipeWorker runs a worker in-process over synchronous pipes — the test and
// single-binary transport. The worker goroutine exits on shutdown or Close.
func PipeWorker(cfg WorkerConfig) Transport {
	toWorker, fromCoord := io.Pipe()
	toCoord, fromWorker := io.Pipe()
	go func() {
		err := RunWorker(toWorker, fromWorker, cfg)
		// Propagate worker failure as EOF on the coordinator's reader.
		_ = fromWorker.CloseWithError(err)
		_ = toWorker.CloseWithError(err)
	}()
	return newIOTransport(fromCoord, toCoord, func() error {
		_ = fromCoord.Close()
		return toCoord.Close()
	})
}

// Solo serves one job start-to-finish in this process on a fresh worker —
// the reference a distributed (and possibly crash-recovered) run must match
// decision-for-decision.
func Solo(job Job, cfg WorkerConfig) (*Response, error) {
	wk := newWorker(cfg)
	defer wk.closeAll()
	resp := wk.serve(&Request{
		ID: 1, Cmd: CmdServe,
		Stream: job.Stream, Scenario: job.Scenario, RenderSeed: job.RenderSeed,
		Frames: job.Frames, PeriodSec: job.PeriodSec, Policy: job.Policy,
	})
	if !resp.OK {
		return nil, fmt.Errorf("distrib: solo %s: %s", job.Stream, resp.Err)
	}
	if !resp.Done {
		return nil, fmt.Errorf("distrib: solo %s stopped at %d/%d frames", job.Stream, resp.Served, job.Frames)
	}
	if n := wk.dml.TotalRefs(); n != 0 {
		return nil, fmt.Errorf("distrib: solo %s leaked %d refs", job.Stream, n)
	}
	return resp, nil
}
