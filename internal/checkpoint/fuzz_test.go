package checkpoint_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// seedInputs builds the committed fuzz corpus: a valid checkpoint at a few
// cursor positions plus the canonical malformed classes (bad magic, bumped
// version, truncations, CRC-breaking flips). Regenerate the testdata files
// with CHECKPOINT_WRITE_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/checkpoint
func seedInputs(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, k := range []int{0, 5, 40} {
		b, _ := encodeAt(t, k)
		seeds = append(seeds, b)
	}
	valid := seeds[1]
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	seeds = append(seeds, badMagic)
	future := append([]byte(nil), valid...)
	future[8] = 0x7f
	seeds = append(seeds, future)
	seeds = append(seeds, valid[:11], valid[:len(valid)/2], valid[:len(valid)-3])
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x10
	seeds = append(seeds, flip)
	seeds = append(seeds, []byte{}, []byte("SHFTCKPT"))
	return seeds
}

// FuzzDecode drives Decode over arbitrary bytes: it must return a typed
// error or a checkpoint that survives re-encoding — and never panic. Decode
// takes no residency references, so "no leaked refs" holds by construction;
// the round-trip check additionally pins that anything Decode accepts,
// Encode can carry forward (the journal rewrites checkpoints it replays).
func FuzzDecode(f *testing.F) {
	for _, seed := range seedInputs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := checkpoint.Decode(b)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrBadMagic) && !errors.Is(err, checkpoint.ErrVersion) &&
				!errors.Is(err, checkpoint.ErrTruncated) && !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		re, err := checkpoint.Encode(c)
		if err != nil {
			t.Fatalf("decoded checkpoint failed to re-encode: %v", err)
		}
		c2, err := checkpoint.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded checkpoint failed to decode: %v", err)
		}
		if c2.Session.Name != c.Session.Name || c2.Session.Next != c.Session.Next ||
			len(c2.Session.Records) != len(c.Session.Records) {
			t.Fatal("re-encode round trip drifted")
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed corpus under
// testdata/fuzz/FuzzDecode when CHECKPOINT_WRITE_CORPUS=1. Otherwise it pins
// the v1 bytes: every committed seed-NN file must hold seedInputs' entry NN
// byte for byte, so an encoder change that moves one byte of a checkpoint
// fails here, not only one whose output stops decoding. Every committed
// entry must also decode-or-fail cleanly (the CI race job replays the
// corpus through this path plus the fuzz target itself).
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	seeds := seedInputs(t)
	if os.Getenv("CHECKPOINT_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := map[string][]byte{}
	for i, seed := range seeds {
		want[fmt.Sprintf("seed-%02d", i)] = seed
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		rest, ok := bytes.CutPrefix(body, []byte("go test fuzz v1\n"))
		if !ok {
			t.Fatalf("%s: not a go fuzz corpus file", e.Name())
		}
		line := strings.TrimSpace(string(rest))
		line = strings.TrimPrefix(line, "[]byte(")
		line = strings.TrimSuffix(line, ")")
		quoted, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		data := []byte(quoted)
		if seed, ok := want[e.Name()]; ok {
			if !bytes.Equal(data, seed) {
				t.Errorf("%s: committed bytes differ from the encoder's (%d vs %d bytes); "+
					"the v1 encoding moved", e.Name(), len(data), len(seed))
			}
			delete(want, e.Name())
		}
		if c, err := checkpoint.Decode(data); err == nil {
			if _, err := checkpoint.Encode(c); err != nil {
				t.Fatalf("%s: decoded but failed re-encode: %v", e.Name(), err)
			}
		}
	}
	for i := range seeds {
		name := fmt.Sprintf("seed-%02d", i)
		if _, missing := want[name]; missing {
			t.Errorf("%s: seed missing from the committed corpus", name)
		}
	}
}
