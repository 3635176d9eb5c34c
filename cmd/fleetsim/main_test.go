package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// defaults mirrors the flag defaults.
func defaults() options {
	return options{
		devices: 2, scales: "1,1.25", placement: "residency-affinity",
		streams: 16, rate: 0.25, period: 0.1, budget: 3, queue: 8,
		poolMB: 1300, seed: 1, valFrames: 800,
	}
}

// TestValidateRejectsBadFlags is the CLI smoke test for flag validation:
// unknown placement or grid names and malformed numeric flags must produce
// a one-line error before any characterization work, never a panic mid-run.
func TestValidateRejectsBadFlags(t *testing.T) {
	if err := validate(defaults()); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"unknown placement", func(o *options) { o.placement = "bogus" }, "unknown placement"},
		{"unknown sweep", func(o *options) { o.sweep = "bogus" }, "-sweep"},
		{"zero devices", func(o *options) { o.devices = 0 }, "-devices"},
		{"negative streams", func(o *options) { o.streams = -1 }, "-streams"},
		{"negative rate", func(o *options) { o.rate = -0.25 }, "-rate"},
		{"zero period", func(o *options) { o.period = 0 }, "-period"},
		{"negative budget", func(o *options) { o.budget = -3 }, "-budget"},
		{"bad queue", func(o *options) { o.queue = -2 }, "-queue"},
		{"negative regions", func(o *options) { o.regions = -1 }, "-regions"},
		{"negative pool", func(o *options) { o.poolMB = -1 }, "-pool-mb"},
		{"zero val-frames", func(o *options) { o.valFrames = 0 }, "-val-frames"},
		{"negative faults", func(o *options) { o.faults = -6 }, "-faults"},
	}
	for _, c := range cases {
		o := defaults()
		c.mut(&o)
		err := validate(o)
		if err == nil {
			t.Errorf("%s accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the flag (%q)", c.name, err, c.want)
		}
		if strings.ContainsRune(err.Error(), '\n') {
			t.Errorf("%s: multi-line error %q", c.name, err)
		}
	}
	// run() must refuse bad flags before characterizing: a bogus placement
	// returns (quickly) with the validation error, not a deep failure.
	var out bytes.Buffer
	o := defaults()
	o.placement = "bogus"
	if err := run(o, nil, &out); err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Fatalf("run accepted an unknown placement or surfaced the wrong error: %v", err)
	}
	// Malformed -scales fail in the same pre-characterization pass.
	o = defaults()
	o.scales = "1,-2"
	if err := run(o, nil, &out); err == nil {
		t.Fatal("run accepted a negative scale")
	}
	if out.Len() != 0 {
		t.Fatalf("rejected runs characterized anyway:\n%s", out.String())
	}
	// Coordinator mode serves out-of-process: the in-process features are
	// refused with a one-line error before any worker spawns.
	if err := validateWorkersMode(defaults()); err != nil {
		t.Fatalf("plain -workers rejected: %v", err)
	}
	for name, mut := range map[string]func(*options){
		"-trace":     func(o *options) { o.trace = "out.json" },
		"-sweep":     func(o *options) { o.sweep = "fleet" },
		"-autoscale": func(o *options) { o.autoscale = true },
		"-faults":    func(o *options) { o.faults = 6 },
		"-prefetch":  func(o *options) { o.prefetch = true },
	} {
		o := defaults()
		mut(&o)
		err := validateWorkersMode(o)
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "-workers") {
			t.Fatalf("%s -workers accepted: %v", name, err)
		}
		if strings.ContainsRune(err.Error(), '\n') {
			t.Fatalf("%s -workers: multi-line error %q", name, err)
		}
	}
}

// TestComposedFlagsMatchAcrossRegions: every feature flag composes on one
// cell — faults, the elastic controller, prefetch and the recorder at once —
// and the composed run's report and Chrome trace are byte-identical sharded
// across 2 regions and single-region.
func TestComposedFlagsMatchAcrossRegions(t *testing.T) {
	dir := t.TempDir()
	serve := func(regions int) (string, []byte) {
		o := defaults()
		o.valFrames = 100
		o.faults = 6
		o.autoscale = true
		o.prefetch = true
		o.regions = regions
		o.trace = filepath.Join(dir, "trace.json")
		var out bytes.Buffer
		if err := run(o, nil, &out); err != nil {
			t.Fatal(err)
		}
		trace, err := os.ReadFile(o.trace)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), trace
	}
	sharded, shardedTrace := serve(2)
	single, singleTrace := serve(0)
	if sharded != single {
		t.Fatalf("report differs across region counts:\n%s\nvs\n%s", sharded, single)
	}
	if !bytes.Equal(shardedTrace, singleTrace) {
		t.Fatal("Chrome trace differs across region counts")
	}
	for _, want := range []string{"Faults:", "Autoscale:", "Predictor scorecard", "Latency attribution", "wrote Chrome trace"} {
		if !strings.Contains(single, want) {
			t.Errorf("composed report lacks %q:\n%s", want, single)
		}
	}
}
