package scene

import (
	"encoding/json"
	"testing"
)

// FuzzParseScenario hardens the scenario-file parser: arbitrary input must
// either fail or yield a validated scenario that renders without panicking.
func FuzzParseScenario(f *testing.F) {
	valid, err := json.Marshal(Scenario2())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"Name":"x","W":8,"H":8,"Segments":[{"Name":"s","Frames":2,"Texture":0,"Contrast":0.5,"Visible":true}]}`))
	f.Add([]byte(`{"Name":"x"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"Name":"x","W":-1,"H":8,"Segments":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			return
		}
		// Parsed scenarios passed validation, so invariants must hold.
		if s.W <= 0 || s.H <= 0 || len(s.Segments) == 0 {
			t.Fatalf("validation let through a degenerate scenario: %+v", s)
		}
		// Rendering a (frame-capped) copy must not panic and must produce
		// in-bounds ground truth.
		capped := *s
		capped.Segments = append([]Segment(nil), s.Segments...)
		for i := range capped.Segments {
			if capped.Segments[i].Frames > 3 {
				capped.Segments[i].Frames = 3
			}
		}
		for _, fr := range capped.Render(1) {
			if fr.Ctx.Present && fr.GT.Empty() {
				t.Fatal("visible frame without ground truth")
			}
			if !fr.GT.Empty() {
				if fr.GT.X < 0 || fr.GT.Y < 0 ||
					fr.GT.Right() > float64(capped.W) || fr.GT.Bottom() > float64(capped.H) {
					t.Fatalf("ground truth %v outside %dx%d frame", fr.GT, capped.W, capped.H)
				}
			}
		}
	})
}
