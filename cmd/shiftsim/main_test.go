package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

// defaults mirrors the flag defaults, on a 200-frame validation set.
func defaults() options {
	return options{
		method: "SHIFT", model: "YoloV7", proc: "gpu", seed: 1, valFrames: 200,
		momentum: 30, knobs: sched.Knobs{Accuracy: 1, Energy: 0.5, Latency: 0.5}, goalAcc: 0.25,
	}
}

var swapsRE = regexp.MustCompile(`swaps=(\d+)`)

// TestTimelineIsTheRunSummarized checks that -timeline prints the timeline
// of the run on the summary line above it, whatever the method and knobs:
// its title names that method, and its pair spans are that run's swaps
// plus one.
func TestTimelineIsTheRunSummarized(t *testing.T) {
	marlin := defaults()
	marlin.method = "Marlin"
	tuned := defaults()
	tuned.knobs = sched.Knobs{Accuracy: 3}
	for _, o := range []options{marlin, tuned} {
		o.scenario, o.timeline = "scenario2", true
		var buf bytes.Buffer
		if err := run(o, &buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		summary, title := lines[1], lines[2]
		m := swapsRE.FindStringSubmatch(summary)
		if m == nil {
			t.Fatalf("%s: no swap count in summary %q", o.method, summary)
		}
		swaps, _ := strconv.Atoi(m[1])
		method := strings.Fields(summary)[0]
		if want := method + " timeline on scenario2"; !strings.HasPrefix(title, want) {
			t.Errorf("%s: timeline title %q, want %q", o.method, title, want)
		}
		spans := 0
		for i, l := range lines {
			if l == "active pair spans:" {
				for _, span := range lines[i+1:] {
					if !strings.HasPrefix(span, "  ") {
						break
					}
					spans++
				}
			}
		}
		if spans != swaps+1 {
			t.Errorf("%s knobs %+v: timeline has %d pair spans under a summary with swaps=%d",
				o.method, o.knobs, spans, swaps)
		}
	}
}
