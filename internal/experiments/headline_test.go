package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var full = flag.Bool("full", false, "also serve the fleet1000_* headline block (about 70 s) in TestHeadlineMatchesCommittedBench")

// newestBench returns the path and headline of the newest committed
// BENCH_YYYY-MM-DD.json at the repository root.
func newestBench(t *testing.T) (string, map[string]float64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	dated := regexp.MustCompile(`^BENCH_\d{4}-\d{2}-\d{2}\.json$`)
	var newest string
	for _, p := range paths {
		if dated.MatchString(filepath.Base(p)) && p > newest {
			newest = p
		}
	}
	if newest == "" {
		t.Fatal("no committed BENCH_YYYY-MM-DD.json")
	}
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Headline map[string]float64 `json:"headline"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", newest, err)
	}
	return newest, doc.Headline
}

// TestHeadlineMatchesCommittedBench is the bit-identity contract, checked by
// machine: every simulated headline key, recomputed from the headline table,
// equals the newest committed BENCH file bit-for-bit. The table and the file
// must declare the same keys. The fleet1000_* block (a simulated day on
// 1 000 devices) runs only with -full.
func TestHeadlineMatchesCommittedBench(t *testing.T) {
	env := testEnv(t)
	path, committed := newestBench(t)
	table := Headline()
	declared := map[string]bool{}
	var blocks []HeadlineBlock
	for _, b := range table {
		for _, k := range b.Keys {
			declared[b.Prefix+"_"+k.Name] = true
		}
		if b.Prefix != "fleet1000" || *full {
			blocks = append(blocks, b)
		}
	}
	for _, k := range sortedKeys(committed) {
		if !declared[k] {
			t.Errorf("%s records %s, which the headline table does not declare", path, k)
		}
	}
	for _, k := range sortedKeys(declared) {
		if _, ok := committed[k]; !ok {
			t.Errorf("headline key %s is missing from %s", k, path)
		}
	}
	got, err := HeadlineValues(env, blocks)
	if err != nil {
		t.Fatal(err)
	}
	wall := map[string]bool{}
	for _, k := range WallKeys(table) {
		wall[k] = true
	}
	checked := 0
	for _, k := range sortedKeys(got) {
		if wall[k] {
			continue
		}
		if want := committed[k]; math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Errorf("%s = %v, %s has %v", k, got[k], path, want)
		}
		checked++
	}
	t.Logf("%d simulated headline keys bit-identical to %s", checked, path)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
