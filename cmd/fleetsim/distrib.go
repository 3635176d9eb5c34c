package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/detmodel"
	"repro/internal/distrib"
)

// runWorker is the -worker mode: speak the worker protocol on stdio until
// the coordinator shuts us down or the pipe closes. Nothing else may write
// to stdout — it is the protocol channel.
func runWorker(name string, seed uint64) error {
	return distrib.RunWorker(os.Stdin, os.Stdout, distrib.WorkerConfig{Name: name, Seed: seed})
}

// distribJobs deals a deterministic stream set: scenario-2 prefixes of
// 30..60 frames served by the fixed YoloV7-Tiny/GPU policy.
func distribJobs(streams int, period float64, seed uint64) []distrib.Job {
	policy := "fixed:" + detmodel.YoloV7Tiny + "/gpu"
	jobs := make([]distrib.Job, streams)
	for i := range jobs {
		jobs[i] = distrib.Job{
			Stream:     fmt.Sprintf("stream-%02d", i),
			Scenario:   "scenario2",
			RenderSeed: seed,
			Frames:     30 + (i*7)%31,
			PeriodSec:  period,
			Policy:     policy,
		}
	}
	return jobs
}

// runCoordinator is the -workers mode: spawn N worker subprocesses of this
// binary, serve the stream set across them in journaled chunks, optionally
// SIGKILL one mid-run (-kill-one), and verify every stream's decision digest
// against an uninterrupted in-process serve before checking the survivors
// shut down with zero leaked residency refs.
func runCoordinator(workers, streams int, period float64, seed uint64, killOne bool, journalDir string) error {
	if killOne && workers < 2 {
		return fmt.Errorf("-kill-one needs at least 2 workers to leave a survivor")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	transports := make([]*distrib.ProcTransport, workers)
	killed := false
	c := distrib.NewCoordinator(distrib.CoordConfig{
		JournalDir: journalDir,
		OnProgress: func(ev distrib.Progress) {
			if killOne && !killed && ev.Worker == "w0" {
				killed = true
				fmt.Printf("kill -9 w0 (pid %d) after %s journaled %d frames\n",
					transports[0].Process().Pid, ev.Stream, ev.Served)
				if err := transports[0].Process().Kill(); err != nil {
					fmt.Fprintln(os.Stderr, "fleetsim: kill w0:", err)
				}
			}
		},
	})
	for i := range transports {
		name := fmt.Sprintf("w%d", i)
		cmd := exec.Command(exe, "-worker", name, "-seed", strconv.FormatUint(seed, 10))
		tr, err := distrib.NewProcTransport(cmd)
		if err != nil {
			return fmt.Errorf("spawn %s: %w", name, err)
		}
		transports[i] = tr
		if err := c.AddWorker(name, tr); err != nil {
			return err
		}
	}
	jobs := distribJobs(streams, period, seed)
	fmt.Printf("serving %d streams across %d worker processes...\n", len(jobs), workers)
	start := time.Now() //detlint:allow wallclock CLI progress timer over real worker processes, printed only
	rep, err := c.Run(jobs)
	if err != nil {
		return err
	}

	mismatches := 0
	for i, jr := range rep.Jobs {
		ref, err := distrib.Solo(jobs[i], distrib.WorkerConfig{Name: "solo", Seed: seed})
		if err != nil {
			return err
		}
		status := "ok"
		if jr.Digest != ref.Digest {
			status = "DIGEST MISMATCH"
			mismatches++
		}
		fmt.Printf("%-10s %3d frames  path %v  replayed %2d  %s\n",
			jr.Stream, jr.Served, jr.Workers, jr.Replayed, status)
	}
	fmt.Printf("\n%d streams on %d workers in %v | deaths %d, retries %d | journal %d writes, %.1f KiB\n",
		len(jobs), workers, time.Since(start).Round(time.Millisecond), //detlint:allow wallclock CLI progress timer over real worker processes, printed only
		rep.WorkerDeaths, rep.Retries, rep.JournalWrites, float64(rep.JournalBytes)/1024)
	if err := c.Shutdown(); err != nil {
		return err
	}
	fmt.Println("shutdown clean: zero leaked residency refs on survivors")
	if mismatches > 0 {
		return fmt.Errorf("%d stream(s) diverged from the uninterrupted reference", mismatches)
	}
	if killOne && !killed {
		return fmt.Errorf("-kill-one set but w0 never journaled a chunk")
	}
	if killOne && rep.WorkerDeaths == 0 {
		return fmt.Errorf("-kill-one killed w0 but the coordinator saw no death")
	}
	return nil
}
