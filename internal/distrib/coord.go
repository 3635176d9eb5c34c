package distrib

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Transport is one worker connection: strictly sequential request/response
// with a per-request deadline. Implementations: ProcTransport (a worker
// subprocess over stdio pipes) and PipeWorker (in-process, for tests and
// single-binary harnesses).
type Transport interface {
	Send(req *Request, timeout time.Duration) (*Response, error)
	Close() error
}

// The coordinator's dispatch constants. chunkFrames bounds frames per serve
// request — also the most work a crash can destroy per stream beyond the
// journal. requestTimeout is the per-request deadline; a failed request is
// re-sent up to retries times (same ID, so the worker's idempotency cache
// absorbs duplicates), after a backoff that doubles per attempt, before the
// worker is declared dead.
const (
	chunkFrames    = 8
	requestTimeout = 10 * time.Second
	retries        = 3
	backoff        = 50 * time.Millisecond
)

// CoordConfig parameterizes the coordinator's dispatch loop.
type CoordConfig struct {
	// JournalDir, when set, persists each stream's latest checkpoint to
	// <dir>/<stream>.ckpt after every chunk.
	JournalDir string
	// OnProgress observes each journaled chunk (tests and harnesses hook
	// fault injection here). Nil: no observer.
	OnProgress func(ev Progress)
}

// Progress is one OnProgress observation.
type Progress struct {
	Stream string
	Worker string
	Served int
}

// Job is one stream for the coordinator to serve, frames by reference.
type Job struct {
	Stream     string
	Scenario   string
	RenderSeed uint64
	Frames     int
	PeriodSec  float64
	Policy     string
}

// JobReport is one stream's outcome.
type JobReport struct {
	Stream string
	// Workers is the serving path (one entry per placement, so a stream
	// re-dispatched after worker deaths lists every worker it ran on).
	Workers []string
	Served  int
	Digest  uint64
	// Replayed counts frames lost with dead workers and served again from
	// the journal.
	Replayed int
}

// RunReport is one coordinator run.
type RunReport struct {
	Jobs          []JobReport
	WorkerDeaths  int
	Retries       int
	JournalWrites int
	JournalBytes  int64
}

// remoteWorker is the coordinator's view of one worker.
type remoteWorker struct {
	name   string
	tr     Transport
	dead   bool
	nextID uint64
}

// streamState is one job's dispatch state: the journaled checkpoint is the
// only state that survives its worker dying.
type streamState struct {
	job     Job
	worker  *remoteWorker
	journal []byte
	// journaled is the served count the journal pins — what recovery rolls
	// back to; served is the count the live worker last reported.
	journaled int
	served    int
	done      bool
	report    JobReport
}

// Coordinator owns placement and the checkpoint journal across a set of
// workers.
type Coordinator struct {
	cfg     CoordConfig
	workers []*remoteWorker
	retries int
	deaths  int
}

// NewCoordinator returns a coordinator with no workers attached.
func NewCoordinator(cfg CoordConfig) *Coordinator {
	return &Coordinator{cfg: cfg}
}

// AddWorker attaches a worker connection, verifying it answers hello.
func (c *Coordinator) AddWorker(name string, tr Transport) error {
	w := &remoteWorker{name: name, tr: tr}
	resp, err := c.send(w, &Request{Cmd: CmdHello})
	if err != nil {
		return fmt.Errorf("distrib: hello to %s: %w", name, err)
	}
	if !resp.OK {
		return fmt.Errorf("distrib: hello to %s: %s", name, resp.Err)
	}
	if resp.Device != name {
		return fmt.Errorf("distrib: worker %q answered hello as %q", name, resp.Device)
	}
	c.workers = append(c.workers, w)
	return nil
}

// send issues one request with the per-request deadline and bounded
// exponential-backoff retry. Every attempt re-sends the same ID, so a worker
// that processed the request while its response was lost replays the cached
// response instead of advancing twice.
func (c *Coordinator) send(w *remoteWorker, req *Request) (*Response, error) {
	w.nextID++
	req.ID = w.nextID
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			c.retries++
			time.Sleep(backoff << (attempt - 1)) //detlint:allow wallclock retry backoff against live worker processes; virtual time cannot pace real pipes
		}
		resp, err := w.tr.Send(req, requestTimeout)
		if err == nil {
			if resp.ID != req.ID {
				return nil, fmt.Errorf("distrib: worker %s answered id %d to request %d", w.name, resp.ID, req.ID)
			}
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// alive returns live workers in attach order.
func (c *Coordinator) alive() []*remoteWorker {
	var out []*remoteWorker
	for _, w := range c.workers {
		if !w.dead {
			out = append(out, w)
		}
	}
	return out
}

// Run serves the jobs to completion, surviving worker deaths as long as one
// worker remains. Streams are dealt round-robin over the workers attached at
// start and advanced fairly, one chunk per turn.
func (c *Coordinator) Run(jobs []Job) (*RunReport, error) {
	live := c.alive()
	if len(live) == 0 {
		return nil, fmt.Errorf("distrib: no live workers")
	}
	states := make([]*streamState, len(jobs))
	for i, job := range jobs {
		if job.Stream == "" {
			return nil, fmt.Errorf("distrib: job %d has no stream ID", i)
		}
		w := live[i%len(live)]
		states[i] = &streamState{
			job: job, worker: w,
			report: JobReport{Stream: job.Stream, Workers: []string{w.name}},
		}
	}
	rep := &RunReport{}
	for {
		remaining := 0
		for _, st := range states {
			if st.done {
				continue
			}
			remaining++
			if err := c.step(st, states, rep); err != nil {
				return nil, err
			}
		}
		if remaining == 0 {
			break
		}
	}
	for _, st := range states {
		rep.Jobs = append(rep.Jobs, st.report)
	}
	rep.WorkerDeaths = c.deaths
	rep.Retries = c.retries
	return rep, nil
}

// step advances one stream by one chunk on its worker, journaling the
// returned checkpoint; on transport failure the worker is declared dead and
// its streams re-dispatched.
func (c *Coordinator) step(st *streamState, states []*streamState, rep *RunReport) error {
	req := &Request{
		Cmd:        CmdServe,
		Stream:     st.job.Stream,
		Scenario:   st.job.Scenario,
		RenderSeed: st.job.RenderSeed,
		Frames:     st.job.Frames,
		PeriodSec:  st.job.PeriodSec,
		Policy:     st.job.Policy,
		Chunk:      chunkFrames,
		Checkpoint: st.journal,
	}
	resp, err := c.send(st.worker, req)
	if err != nil {
		return c.workerDied(st.worker, states, err)
	}
	if !resp.OK {
		return fmt.Errorf("distrib: serve %s on %s: %s", st.job.Stream, st.worker.name, resp.Err)
	}
	if len(resp.Checkpoint) == 0 {
		return fmt.Errorf("distrib: serve %s on %s returned no checkpoint", st.job.Stream, st.worker.name)
	}
	st.journal = resp.Checkpoint
	st.journaled = resp.Served
	st.served = resp.Served
	rep.JournalWrites++
	rep.JournalBytes += int64(len(resp.Checkpoint))
	if c.cfg.JournalDir != "" {
		path := filepath.Join(c.cfg.JournalDir, st.job.Stream+".ckpt")
		if err := os.WriteFile(path, resp.Checkpoint, 0o644); err != nil {
			return fmt.Errorf("distrib: journal %s: %w", st.job.Stream, err)
		}
	}
	if resp.Done {
		st.done = true
		st.report.Served = resp.Served
		st.report.Digest = resp.Digest
	}
	if c.cfg.OnProgress != nil {
		c.cfg.OnProgress(Progress{Stream: st.job.Stream, Worker: st.worker.name, Served: resp.Served})
	}
	return nil
}

// workerDied marks a worker dead and re-dispatches its unfinished streams to
// survivors from their journaled checkpoints. Frames the dead worker served
// past each journal entry are lost and counted as replay.
func (c *Coordinator) workerDied(w *remoteWorker, states []*streamState, cause error) error {
	w.dead = true
	c.deaths++
	_ = w.tr.Close()
	live := c.alive()
	if len(live) == 0 {
		return fmt.Errorf("distrib: worker %s died (%v) with no survivors", w.name, cause)
	}
	n := 0
	for _, st := range states {
		if st.done || st.worker != w {
			continue
		}
		next := live[n%len(live)]
		n++
		st.worker = next
		st.report.Workers = append(st.report.Workers, next.name)
		// The survivor restores from the journal; anything the dead worker
		// served past it is replayed.
		st.report.Replayed += st.served - st.journaled
		st.served = st.journaled
	}
	return nil
}

// Shutdown closes every live worker, verifying each released all residency
// references, then closes the transports.
func (c *Coordinator) Shutdown() error {
	var firstErr error
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		resp, err := c.send(w, &Request{Cmd: CmdShutdown})
		switch {
		case err != nil:
			if firstErr == nil {
				firstErr = fmt.Errorf("distrib: shutdown %s: %w", w.name, err)
			}
		case !resp.OK:
			if firstErr == nil {
				firstErr = fmt.Errorf("distrib: shutdown %s: %s", w.name, resp.Err)
			}
		case resp.LeakedRefs != 0:
			if firstErr == nil {
				firstErr = fmt.Errorf("distrib: worker %s leaked %d residency refs", w.name, resp.LeakedRefs)
			}
		}
		if err := w.tr.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		w.dead = true
	}
	return firstErr
}
