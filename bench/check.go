package bench

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
)

// checkFleet verifies the invariants every fleet pass must hold: each
// offered stream has one outcome and is served, rejected, aborted or shed;
// no residency reference leaks; no premium (non-best-effort) stream is
// shed.
func checkFleet(reqs []fleet.StreamRequest, fl *fleet.Fleet, res *fleet.Result) error {
	var errs []error
	if res.Offered != len(reqs) || len(res.Outcomes) != len(reqs) {
		errs = append(errs, fmt.Errorf("offered %d streams, result counts %d with %d outcomes",
			len(reqs), res.Offered, len(res.Outcomes)))
	}
	if sum := res.Served + res.Rejected + res.Aborted + res.Shed; sum != res.Offered {
		errs = append(errs, fmt.Errorf("offered %d != served %d + rejected %d + aborted %d + shed %d",
			res.Offered, res.Served, res.Rejected, res.Aborted, res.Shed))
	}
	for _, d := range fl.Devices() {
		if n := d.DML.TotalRefs(); n != 0 {
			errs = append(errs, fmt.Errorf("device %s leaked %d residency refs", d.Name, n))
		}
	}
	for _, out := range res.Outcomes {
		if out.Shed && !out.BestEffort {
			errs = append(errs, fmt.Errorf("premium stream %s was shed", out.Name))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("bench: fleet invariants: %w", errors.Join(errs...))
	}
	return nil
}

// checkTable verifies that every (method, scenario) cell served frames.
func checkTable(cells []metrics.Summary) error {
	for i, c := range cells {
		if c.Frames == 0 {
			return fmt.Errorf("bench: table cell %d (%s) served no frames", i, c.Method)
		}
	}
	return nil
}

// headlineFile is the committed BENCH file whose Table III headline keys
// paper_table3 must reproduce at seed 1.
const headlineFile = "BENCH_2026-08-08.json"

// findRepoFile locates a repository-root file from the working directory:
// the repository root itself or its bench directory.
func findRepoFile(name string) (string, error) {
	for _, dir := range []string{".", ".."} {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("bench: %s not found in . or ..", name)
}

// checkHeadline compares the SHIFT and Marlin rows with the committed
// shift_* and marlin_* headline keys, exactly.
func checkHeadline(res *experiments.TableIIIResult) error {
	path, err := findRepoFile(headlineFile)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Headline map[string]float64 `json:"headline"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("bench: parse %s: %w", path, err)
	}
	var errs []error
	for _, row := range []struct{ method, prefix string }{{"SHIFT", "shift"}, {"Marlin", "marlin"}} {
		s, ok := res.Summary(row.method)
		if !ok {
			return fmt.Errorf("bench: table has no %s row", row.method)
		}
		for _, kv := range []struct {
			key string
			got float64
		}{
			{"_iou", s.AvgIoU}, {"_time_s", s.AvgTimeSec}, {"_energy_j", s.AvgEnergyJ}, {"_swaps", float64(s.Swaps)},
		} {
			key := row.prefix + kv.key
			want, ok := doc.Headline[key]
			if !ok {
				errs = append(errs, fmt.Errorf("%s has no headline key %s", path, key))
			} else if kv.got != want {
				errs = append(errs, fmt.Errorf("%s = %v, committed %v", key, kv.got, want))
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("bench: headline: %w", errors.Join(errs...))
	}
	return nil
}

// PinnedSeeds are the seeds whose full-scale digests are pinned; seed 2 is
// held out from the development of any change the benchmark measures.
var PinnedSeeds = []uint64{1, 2}

//go:embed pins.json
var pinsJSON []byte

// Pins maps "<workload>/<seed>" to the pinned full-scale output digest.
func Pins() (map[string]string, error) {
	pins := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("bench: parse pins.json: %w", err)
	}
	return pins, nil
}

// PinKey names a digest pin.
func PinKey(workload string, seed uint64) string { return fmt.Sprintf("%s/%d", workload, seed) }

// CheckPin compares a full-scale digest with its pin; unpinned seeds and
// scaled runs pass, since only their invariants are checked.
func CheckPin(cfg Config, digest string) error {
	if cfg.Scale != 1 {
		return nil
	}
	pins, err := Pins()
	if err != nil {
		return err
	}
	want, ok := pins[PinKey(cfg.Workload, cfg.Seed)]
	if ok && want != digest {
		return fmt.Errorf("bench: %s seed %d digest %s, pinned %s", cfg.Workload, cfg.Seed, digest, want)
	}
	return nil
}
