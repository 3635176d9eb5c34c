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
	if got := s.Procs["gpu"].lane.horizon; got != b.End {
		t.Fatalf("gpu horizon %v, want %v", got, b.End)
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
	if s.Now() != b.End {
		t.Fatalf("clock %v, want horizon %v", s.Now(), b.End)
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
// Now(): every charge, on any processor or the copy channel, advances the
// clock to its own end, so the clock is never behind any lane's FIFO
// horizon and work submitted at Now() never queues.
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
		for _, id := range lanes {
			if h := laneOf(s, id).horizon; h > s.Now() {
				t.Fatalf("charge %d: clock %v behind %s's horizon %v", i, s.Now(), id, h)
			}
		}
		sp, err := s.ExecFrom(procs[i%len(procs)], s.Now(), 0.01, 8)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Wait != 0 || s.Now() != sp.End {
			t.Fatalf("charge %d: submission at Now() queued or left the clock behind: %+v, clock %v", i, sp, s.Now())
		}
	}
}

// TestNowNeverRewinds: the event loop completes work out of global order,
// so a charge that ends before the latest completion leaves Now() where it
// is, while that charge's own lane still advances.
func TestNowNeverRewinds(t *testing.T) {
	s := testSoC()
	late, err := s.ExecFrom("gpu", 3*time.Second, 0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Now() != late.End {
		t.Fatalf("clock %v, want %v", s.Now(), late.End)
	}
	early, err := s.ExecFrom("dla0", time.Second, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if early.End >= late.End || s.Now() != late.End {
		t.Fatalf("clock %v after an earlier completion %v, want %v", s.Now(), early.End, late.End)
	}
	if h := s.Procs["dla0"].lane.horizon; h != early.End {
		t.Fatalf("dla0 horizon %v, want %v", h, early.End)
	}
}

// TestExecFromMetersAndTrace checks that a charge lands in its own lane's
// busy time and no other, and that the span it returns (what the flight
// recorder records as an exec span) sits where the work ran: at its ready
// time on an idle processor, one latency long.
func TestExecFromMetersAndTrace(t *testing.T) {
	s := testSoC()
	sp, err := s.ExecFrom("gpu", time.Second, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"cpu", "gpu", "dla0", "dla1", "oakd", DMAProcID} {
		want := time.Duration(0)
		if id == "gpu" {
			want = sp.Cost.Lat
		}
		if got := laneOf(s, id).busy; got != want {
			t.Fatalf("%s busy %v, want %v", id, got, want)
		}
	}
	if sp.Start != time.Second || sp.Wait != 0 || sp.End != sp.Start+sp.Cost.Lat {
		t.Fatalf("span misplaced: %+v", sp)
	}
	if s.Now() != sp.End {
		t.Fatalf("clock %v, want span end %v", s.Now(), sp.End)
	}
}
