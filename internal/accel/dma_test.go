package accel

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// TestCopyFromFIFOSerialization pins the copy channel's queue discipline:
// concurrent copies serialize FIFO against each other on the one DMA
// channel, paying the earlier copy's remaining transfer as Wait, and the
// channel's lane sums its own busy time.
func TestCopyFromFIFOSerialization(t *testing.T) {
	s := testSoC()
	a, err := s.CopyFrom(0, 1.0, 8.0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Start != 0 || a.Wait != 0 {
		t.Fatalf("first copy queued on an idle channel: %+v", a)
	}
	b, err := s.CopyFrom(0, 0.5, 8.0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Start != a.End {
		t.Fatalf("second copy starts at %v, want the first's completion %v", b.Start, a.End)
	}
	if b.Wait != a.End {
		t.Fatalf("second copy waited %v, want the full first transfer %v", b.Wait, a.End)
	}
	if got := s.dma.horizon; got != b.End {
		t.Fatalf("DMA horizon %v, want %v", got, b.End)
	}
	if s.dma.busy != a.Cost.Lat+b.Cost.Lat {
		t.Fatalf("DMA busy time %v, want %v", s.dma.busy, a.Cost.Lat+b.Cost.Lat)
	}
	// A copy submitted after the queue drains starts at its own ready time.
	c, err := s.CopyFrom(b.End+time.Second, 0.1, 8.0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Start != b.End+time.Second || c.Wait != 0 {
		t.Fatalf("post-drain copy queued: %+v", c)
	}
}

// TestCopyFromNeverOccupiesCompute pins the overlap contract: transfers
// move only the DMA lane — every compute processor's FIFO queue and busy
// time are exactly where they were, so a stream keeps executing while its
// engine loads.
func TestCopyFromNeverOccupiesCompute(t *testing.T) {
	s := testSoC()
	if _, err := s.ExecFrom("gpu", 0, 0.2, 10); err != nil {
		t.Fatal(err)
	}
	gpu := s.Procs["gpu"].lane
	if _, err := s.CopyFrom(0, 2.0, 8.0); err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Procs {
		if p.ID == "gpu" {
			continue
		}
		if p.lane != (lane{}) {
			t.Fatalf("copy charged %s's lane: %+v", p.ID, p.lane)
		}
	}
	if got := s.Procs["gpu"].lane; got != gpu {
		t.Fatalf("copy moved the gpu lane %+v -> %+v", gpu, got)
	}
}

// TestCopyFromIsolatedFromComputeDraws pins the RNG discipline behind the
// predictor's no-steering guarantee: the DMA channel draws jitter from its
// own forked stream, so interleaving copies into a run leaves every
// compute-path draw bit-identical to a run that never copies.
func TestCopyFromIsolatedFromComputeDraws(t *testing.T) {
	withCopies := DefaultPlatform(rng.New(7))
	without := DefaultPlatform(rng.New(7))
	var ref []Span
	for i := 0; i < 4; i++ {
		sp, err := without.ExecFrom("gpu", 0, 0.1, 10)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, sp)
	}
	for i := 0; i < 4; i++ {
		if _, err := withCopies.CopyFrom(0, 1.0, 8.0); err != nil {
			t.Fatal(err)
		}
		sp, err := withCopies.ExecFrom("gpu", 0, 0.1, 10)
		if err != nil {
			t.Fatal(err)
		}
		if sp != ref[i] {
			t.Fatalf("exec %d perturbed by interleaved copies:\nwith    %+v\nwithout %+v", i, sp, ref[i])
		}
	}
	// And the copies themselves are deterministic: a same-seed platform
	// replays the same transfer spans.
	replay := DefaultPlatform(rng.New(7))
	first, err := withCopies.CopyFrom(100*time.Second, 0.5, 8.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := replay.CopyFrom(0, 1.0, 8.0); err != nil {
			t.Fatal(err)
		}
	}
	second, err := replay.CopyFrom(100*time.Second, 0.5, 8.0)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("same-seed DMA draws diverge: %+v vs %+v", first, second)
	}
}

// TestCopyFromRefusals pins the channel's error edges: a parked platform
// refuses transfers, as do negative parameters, and compute charging can
// never land on the pseudo-processor — ExecFrom refuses DMAProcID because
// it is not a Proc.
func TestCopyFromRefusals(t *testing.T) {
	s := testSoC()
	if _, err := s.CopyFrom(0, -1, 8); err == nil {
		t.Fatal("negative copy latency accepted")
	}
	if _, err := s.CopyFrom(0, 1, -8); err == nil {
		t.Fatal("negative copy power accepted")
	}
	if _, err := s.CopyFrom(-time.Second, 1, 8); err == nil {
		t.Fatal("negative ready time accepted")
	}
	if _, err := s.ExecFrom(DMAProcID, 0, 0.1, 10); err == nil {
		t.Fatal("ExecFrom charged compute on the DMA pseudo-processor")
	}
	if _, err := s.Proc(DMAProcID); err == nil {
		t.Fatal("DMA pseudo-processor listed as a Proc")
	}
	s.Park()
	if _, err := s.CopyFrom(0, 1, 8); err == nil {
		t.Fatal("parked platform accepted a copy")
	}
}
