package img

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rng"
)

// TestPGMRoundTrip pins the P5 bytes of a non-square image: the header
// names width before height, and the pixels follow it unchanged.
func TestPGMRoundTrip(t *testing.T) {
	r := rng.New(50)
	m := randomImage(r, 17, 11)
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	want := append([]byte("P5\n17 11\n255\n"), m.Pix...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WritePGM wrote %q, want %q", buf.Bytes(), want)
	}
}

func TestPGMHeader(t *testing.T) {
	m := New(3, 2)
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P5\n3 2\n255\n") {
		t.Fatalf("header: %q", buf.String()[:16])
	}
}

func TestPGMEmptyImage(t *testing.T) {
	m := New(0, 0)
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "P5\n0 0\n255\n"; got != want {
		t.Fatalf("WritePGM = %q, want %q", got, want)
	}
}
