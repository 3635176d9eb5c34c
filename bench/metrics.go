package bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Metric declares one reported metric: its name and unit. Bounds and the
// better direction live in BENCHMARK.json; the self-test keeps the two
// lists identical.
type Metric struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics of an untraced run. All are host-side costs
// of serving the workload; simulated outputs are pinned by the digest.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"alloc_bytes_per_frame", "B"},
	{"allocs_per_frame", "count"},
	{"peak_rss_mb", "MB"},
}

// PerLayer lists the metrics of a traced run, named <layer>.<metric> after
// the repo module whose public calls are timed.
func PerLayer() []Metric {
	ms := []Metric{
		{"fleet.events", "count"},
		{"fleet.self_s", "s"},
		{"fleet.self_ns_per_event", "ns"},
	}
	for _, l := range []Layer{LayerPlacement, LayerPolicy, LayerSched, LayerLoader, LayerAccel, LayerDetmodel} {
		ms = append(ms,
			Metric{l.String() + ".calls", "count"},
			Metric{l.String() + ".busy_s", "s"},
			Metric{l.String() + ".ns_p50", "ns"},
			Metric{l.String() + ".ns_p99", "ns"},
		)
	}
	ms = append(ms,
		Metric{"sched.rescheduled_frac", "ratio"},
		Metric{"loader.load_frac", "ratio"},
		Metric{"loader.evictions", "count"},
		Metric{"digest.busy_s", "s"},
		Metric{"runtime.step_self_ns", "ns"},
		Metric{"runtime.step_allocs", "count"},
		Metric{"checkpoint.writes", "count"},
		Metric{"checkpoint.bytes", "B"},
		Metric{"checkpoint.replay_frac", "ratio"},
		Metric{"checkpoint.encode_ns", "ns"},
		Metric{"checkpoint.decode_ns", "ns"},
		Metric{"checkpoint.encode_alloc_bytes", "B"},
		Metric{"obs.spans", "count"},
		Metric{"obs.overhead_frac", "ratio"},
	)
	for _, m := range tableMethods() {
		ms = append(ms, Metric{"method." + m.key + ".busy_s", "s"})
	}
	return append(ms,
		Metric{"gc.cycles", "count"},
		Metric{"gc.cpu_frac", "ratio"},
		Metric{"trace.run_s", "s"},
		Metric{"trace.overhead_frac", "ratio"},
	)
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Manifest records what a run measured and where, so a result file is
// reproducible on its own.
type Manifest struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Scale        int     `json:"scale"`
	ConfigDigest string  `json:"config_digest"`
	Digest       string  `json:"digest"`
	GitRev       string  `json:"git_rev"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	Traced       bool    `json:"traced"`
	Seconds      float64 `json:"seconds"`
	Passes       int     `json:"passes"`
}

// NewManifest fills the host and revision fields; the caller records the
// GOMAXPROCS its passes ran at.
func NewManifest(cfg Config, traced bool) Manifest {
	return Manifest{
		Workload:     cfg.Workload,
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ConfigDigest: cfg.Digest(),
		GitRev:       gitRev(),
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		Traced:       traced,
	}
}

// gitRev returns the checked-out commit, or "unknown" outside a git
// checkout. go test does not stamp VCS information into test binaries, so
// it asks git, which is told not to search above the repository root.
func gitRev() string {
	marker, err := findRepoFile("BENCHMARK.json")
	if err != nil {
		return "unknown"
	}
	root, err := filepath.Abs(filepath.Dir(marker))
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Lines renders the metrics as "name value unit" lines in declaration
// order.
func (r *Result) Lines(decl []Metric) string {
	var b strings.Builder
	for _, m := range decl {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(&b, "%s %v %s\n", m.Name, v.Value, v.Unit)
		}
	}
	return b.String()
}
