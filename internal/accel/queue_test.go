package accel

import (
	"testing"
	"time"
)

func TestExecFromQueuesFIFO(t *testing.T) {
	s := testSoC()
	// First submission: processor idle, starts at ready.
	a, err := s.ExecFrom("gpu", 0, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Start != 0 || a.Wait != 0 {
		t.Fatalf("idle processor queued: %+v", a)
	}
	if a.End != a.Start+a.Cost.Lat {
		t.Fatalf("span end %v != start+lat %v", a.End, a.Start+a.Cost.Lat)
	}
	// Second submission ready before the first finishes: it queues.
	b, err := s.ExecFrom("gpu", a.End/2, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Start != a.End {
		t.Fatalf("second span started at %v, want the queue horizon %v", b.Start, a.End)
	}
	if b.Wait != a.End-a.End/2 {
		t.Fatalf("wait %v, want %v", b.Wait, a.End-a.End/2)
	}
	if got := s.BusyUntil("gpu"); got != b.End {
		t.Fatalf("BusyUntil %v, want %v", got, b.End)
	}
	// A different processor is unaffected.
	c, err := s.ExecFrom("dla0", 0, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Wait != 0 {
		t.Fatalf("dla0 queued behind gpu work: %+v", c)
	}
	// The clock tracks the horizon (latest completion).
	if s.Clock.Now() != b.End {
		t.Fatalf("clock %v, want horizon %v", s.Clock.Now(), b.End)
	}
	// Submission after the horizon starts at its ready time.
	d, err := s.ExecFrom("gpu", b.End+time.Second, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Start != b.End+time.Second || d.Wait != 0 {
		t.Fatalf("late submission misqueued: %+v", d)
	}
}

func TestExecFromValidation(t *testing.T) {
	s := testSoC()
	if _, err := s.ExecFrom("npu", 0, 0.1, 1); err == nil {
		t.Fatal("unknown processor should fail")
	}
	if _, err := s.ExecFrom("gpu", 0, -0.1, 1); err == nil {
		t.Fatal("negative latency should fail")
	}
	if _, err := s.ExecFrom("gpu", -time.Second, 0.1, 1); err == nil {
		t.Fatal("negative ready time should fail")
	}
}

// TestClockNeverBehindAnyLane pins what lets a lone caller submit at
// Clock.Now(): every charge, on any processor or the copy channel, advances
// the clock to its own end, so the clock is never behind any lane's FIFO
// horizon and work submitted at Clock.Now() never queues.
func TestClockNeverBehindAnyLane(t *testing.T) {
	s := testSoC()
	procs := []string{"cpu", "gpu", "dla0", "dla1", "oakd"}
	lanes := append(procs, DMAProcID)
	for i := 0; i < 40; i++ {
		ready := time.Duration(i%7) * 10 * time.Millisecond
		var err error
		if lane := lanes[i%len(lanes)]; lane == DMAProcID {
			_, err = s.CopyFrom(ready, 0.05, 8)
		} else {
			_, err = s.ExecFrom(lane, ready, 0.05, 8)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, lane := range lanes {
			if s.BusyUntil(lane) > s.Clock.Now() {
				t.Fatalf("charge %d: clock %v behind %s's horizon %v", i, s.Clock.Now(), lane, s.BusyUntil(lane))
			}
		}
		sp, err := s.ExecFrom(procs[i%len(procs)], s.Clock.Now(), 0.01, 8)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Wait != 0 || s.Clock.Now() != sp.End {
			t.Fatalf("charge %d: submission at Clock.Now() queued or left the clock behind: %+v, clock %v", i, sp, s.Clock.Now())
		}
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := &Clock{}
	c.AdvanceTo(3 * time.Second)
	if c.Now() != 3*time.Second {
		t.Fatalf("clock %v", c.Now())
	}
	// Earlier targets are a no-op, not a rewind.
	c.AdvanceTo(time.Second)
	if c.Now() != 3*time.Second {
		t.Fatalf("AdvanceTo rewound the clock to %v", c.Now())
	}
}

// TestExecFromMetersAndTrace checks that a charge is metered and that the
// span it returns (what the flight recorder records as an exec span) sits
// where the work ran: at its ready time on an idle processor, one latency long.
func TestExecFromMetersAndTrace(t *testing.T) {
	s := testSoC()
	sp, err := s.ExecFrom("gpu", time.Second, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Meter.Execs["gpu"] != 1 || s.Meter.BusyTime["gpu"] != sp.Cost.Lat {
		t.Fatal("meter not charged")
	}
	if sp.Start != time.Second || sp.Wait != 0 || sp.End != sp.Start+sp.Cost.Lat {
		t.Fatalf("span misplaced: %+v", sp)
	}
	if s.Clock.Now() != sp.End {
		t.Fatalf("clock %v, want span end %v", s.Clock.Now(), sp.End)
	}
}
