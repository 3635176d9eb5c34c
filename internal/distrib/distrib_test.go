package distrib_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/detmodel"
	"repro/internal/distrib"
)

// TestMain doubles as the worker-process trampoline: when DISTRIB_WORKER
// names a device, the test binary speaks the worker protocol on its stdio
// and exits — the multi-process tests re-exec themselves through this hook
// (the same pattern cmd/fleetsim -worker uses with a real binary).
func TestMain(m *testing.M) {
	if name := os.Getenv("DISTRIB_WORKER"); name != "" {
		seed := uint64(1)
		if s := os.Getenv("DISTRIB_SEED"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				os.Exit(1)
			}
			seed = v
		}
		if err := distrib.RunWorker(os.Stdin, os.Stdout, distrib.WorkerConfig{Name: name, Seed: seed}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const fixedTiny = "fixed:" + detmodel.YoloV7Tiny + "/gpu"

// testJobs builds a small deterministic job set over scenario-2 prefixes.
func testJobs(frames ...int) []distrib.Job {
	jobs := make([]distrib.Job, len(frames))
	for i, n := range frames {
		jobs[i] = distrib.Job{
			Stream:     fmt.Sprintf("s%02d", i),
			Scenario:   "scenario2",
			RenderSeed: 1,
			Frames:     n,
			PeriodSec:  0.1,
			Policy:     fixedTiny,
		}
	}
	return jobs
}

// soloDigests serves each job uninterrupted in-process — the reference the
// distributed run must reproduce decision-for-decision.
func soloDigests(t *testing.T, jobs []distrib.Job) map[string]uint64 {
	t.Helper()
	want := map[string]uint64{}
	for _, job := range jobs {
		resp, err := distrib.Solo(job, distrib.WorkerConfig{Name: "solo", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[job.Stream] = resp.Digest
	}
	return want
}

// checkReport asserts every job completed with the solo decision digest.
func checkReport(t *testing.T, rep *distrib.RunReport, jobs []distrib.Job, want map[string]uint64) {
	t.Helper()
	if len(rep.Jobs) != len(jobs) {
		t.Fatalf("%d job reports, want %d", len(rep.Jobs), len(jobs))
	}
	for i, jr := range rep.Jobs {
		if jr.Served != jobs[i].Frames {
			t.Fatalf("stream %s served %d frames, want %d", jr.Stream, jr.Served, jobs[i].Frames)
		}
		if jr.Digest != want[jr.Stream] {
			t.Fatalf("stream %s decision digest %#x, solo reference %#x — recovery drifted",
				jr.Stream, jr.Digest, want[jr.Stream])
		}
	}
}

// TestPipeWorkersServeJobs: two in-process workers serve three chunked
// streams; every decision digest matches the uninterrupted solo reference,
// each stream's on-disk journal holds its final checkpoint, and shutdown
// confirms zero leaked residency refs.
func TestPipeWorkersServeJobs(t *testing.T) {
	jobs := testJobs(40, 56, 24)
	want := soloDigests(t, jobs)
	dir := t.TempDir()
	c := distrib.NewCoordinator(distrib.CoordConfig{JournalDir: dir})
	for _, name := range []string{"w0", "w1"} {
		if err := c.AddWorker(name, distrib.PipeWorker(distrib.WorkerConfig{Name: name, Seed: 1})); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, jobs, want)
	if rep.WorkerDeaths != 0 || rep.Retries != 0 {
		t.Fatalf("deaths %d retries %d on a healthy run", rep.WorkerDeaths, rep.Retries)
	}
	if wantWrites := 5 + 7 + 3; rep.JournalWrites != wantWrites {
		t.Fatalf("journal writes %d, want %d (one per chunk)", rep.JournalWrites, wantWrites)
	}
	for i, jr := range rep.Jobs {
		b, err := os.ReadFile(filepath.Join(dir, jr.Stream+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		ck, err := checkpoint.Decode(b)
		if err != nil {
			t.Fatalf("%s: journal file: %v", jr.Stream, err)
		}
		n := jobs[i].Frames
		if ck.Session.Next != n || len(ck.Session.Records) != n {
			t.Fatalf("%s: journal cursor %d with %d records, want the final checkpoint at %d",
				jr.Stream, ck.Session.Next, len(ck.Session.Records), n)
		}
		if d := distrib.DecisionDigest(ck.Session.Records); d != jr.Digest {
			t.Fatalf("%s: journal digest %#x, report %#x", jr.Stream, d, jr.Digest)
		}
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// mortal wraps a transport that can be struck dead mid-run.
type mortal struct {
	distrib.Transport
	dead bool
}

func (m *mortal) Send(req *distrib.Request, timeout time.Duration) (*distrib.Response, error) {
	if m.dead {
		return nil, errors.New("worker unreachable")
	}
	return m.Transport.Send(req, timeout)
}

// TestCoordinatorSurvivesWorkerDeath: worker w0 stops answering after its
// first chunk; the coordinator burns its three retries (0.35 s of backoff),
// declares it dead, and re-dispatches its streams to w1 from the journaled
// checkpoints — every stream completes with the solo digest (the
// cross-process churn contract).
func TestCoordinatorSurvivesWorkerDeath(t *testing.T) {
	jobs := testJobs(40, 56)
	want := soloDigests(t, jobs)
	w0 := &mortal{Transport: distrib.PipeWorker(distrib.WorkerConfig{Name: "w0", Seed: 1})}
	tripped := false
	c := distrib.NewCoordinator(distrib.CoordConfig{
		OnProgress: func(ev distrib.Progress) {
			if ev.Worker == "w0" && !tripped {
				tripped = true
				w0.dead = true
			}
		},
	})
	if err := c.AddWorker("w0", w0); err != nil {
		t.Fatal(err)
	}
	if err := c.AddWorker("w1", distrib.PipeWorker(distrib.WorkerConfig{Name: "w1", Seed: 1})); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, jobs, want)
	if rep.WorkerDeaths != 1 {
		t.Fatalf("worker deaths %d, want 1", rep.WorkerDeaths)
	}
	if rep.Retries != 3 {
		t.Fatalf("retries %d, want the bounded 3 before declaring death", rep.Retries)
	}
	redispatched := 0
	for _, jr := range rep.Jobs {
		if len(jr.Workers) > 1 {
			redispatched++
			if jr.Workers[len(jr.Workers)-1] != "w1" {
				t.Fatalf("stream %s re-dispatched to %v, want w1 last", jr.Stream, jr.Workers)
			}
		}
	}
	if redispatched == 0 {
		t.Fatal("death re-dispatched no streams")
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// lossy delivers the request but loses one serve response in transit.
type lossy struct {
	distrib.Transport
	serveCalls int
	dropped    int
}

func (l *lossy) Send(req *distrib.Request, timeout time.Duration) (*distrib.Response, error) {
	resp, err := l.Transport.Send(req, timeout)
	if err != nil {
		return nil, err
	}
	if req.Cmd == distrib.CmdServe {
		l.serveCalls++
		if l.serveCalls == 2 && l.dropped == 0 {
			l.dropped++
			return nil, errors.New("response lost in transit")
		}
	}
	return resp, nil
}

// TestRetryReplaysLostResponse: a serve response is lost after the worker
// processed it; the retry re-sends the same request ID and the worker's
// idempotency cache replays the response instead of advancing the stream a
// second time — journal write count and digest stay exactly those of a
// clean run.
func TestRetryReplaysLostResponse(t *testing.T) {
	jobs := testJobs(40)
	want := soloDigests(t, jobs)
	w0 := &lossy{Transport: distrib.PipeWorker(distrib.WorkerConfig{Name: "w0", Seed: 1})}
	c := distrib.NewCoordinator(distrib.CoordConfig{})
	if err := c.AddWorker("w0", w0); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, jobs, want)
	if w0.dropped != 1 || rep.Retries != 1 {
		t.Fatalf("dropped %d retries %d, want 1/1", w0.dropped, rep.Retries)
	}
	// 40 frames in chunks of 8 = 5 advancing responses. A double-advance
	// (broken idempotency) would finish in fewer.
	if rep.JournalWrites != 5 {
		t.Fatalf("journal writes %d, want 5 — the replayed response must not re-advance", rep.JournalWrites)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestNoSurvivorsFails: when the only worker dies, the run errors instead of
// spinning.
func TestNoSurvivorsFails(t *testing.T) {
	w0 := &mortal{Transport: distrib.PipeWorker(distrib.WorkerConfig{Name: "w0", Seed: 1})}
	tripped := false
	c := distrib.NewCoordinator(distrib.CoordConfig{
		OnProgress: func(ev distrib.Progress) {
			if !tripped {
				tripped = true
				w0.dead = true
			}
		},
	})
	if err := c.AddWorker("w0", w0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(testJobs(40)); err == nil {
		t.Fatal("run completed with its only worker dead")
	}
}

// startWorkerProc re-execs this test binary as a worker subprocess.
func startWorkerProc(t *testing.T, name string) *distrib.ProcTransport {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "DISTRIB_WORKER="+name, "DISTRIB_SEED=1")
	tr, err := distrib.NewProcTransport(cmd)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestProcWorkerSIGKILLRecovery is the multi-process crash drill: a
// coordinator drives two real worker subprocesses over stdio pipes, one is
// SIGKILLed mid-run, and every stream still completes — resumed on the
// survivor from the coordinator's journaled checkpoints, decision digests
// identical to uninterrupted solo serves, zero residency refs leaked on the
// survivor.
func TestProcWorkerSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	jobs := testJobs(40, 56)
	want := soloDigests(t, jobs)

	w0 := startWorkerProc(t, "w0")
	w1 := startWorkerProc(t, "w1")
	killed := false
	c := distrib.NewCoordinator(distrib.CoordConfig{
		OnProgress: func(ev distrib.Progress) {
			// First journaled chunk from w0: kill -9 the worker process.
			if ev.Worker == "w0" && !killed {
				killed = true
				if err := w0.Process().Kill(); err != nil {
					t.Errorf("kill w0: %v", err)
				}
			}
		},
	})
	if err := c.AddWorker("w0", w0); err != nil {
		t.Fatal(err)
	}
	if err := c.AddWorker("w1", w1); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("w0 never served a chunk, kill not exercised")
	}
	checkReport(t, rep, jobs, want)
	if rep.WorkerDeaths != 1 || rep.Retries != 3 {
		t.Fatalf("worker deaths %d retries %d, want 1 death after 3 retries", rep.WorkerDeaths, rep.Retries)
	}
	redispatched := 0
	for _, jr := range rep.Jobs {
		if len(jr.Workers) > 1 {
			redispatched++
		}
	}
	if redispatched == 0 {
		t.Fatal("SIGKILL re-dispatched no streams")
	}
	// Shutdown verifies the survivor holds zero residency refs.
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
