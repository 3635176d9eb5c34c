package scene

import (
	"encoding/json"
	"strings"
	"testing"
)

func validJSON() string {
	return `{
	  "Name": "test-chase",
	  "W": 48, "H": 48,
	  "Segments": [
	    {"Name": "a", "Frames": 20, "Texture": 1,
	     "IntensityFrom": 150, "IntensityTo": 150,
	     "FromX": 0.2, "FromY": 0.5, "ToX": 0.8, "ToY": 0.5,
	     "DistFrom": 0.4, "DistTo": 0.2, "Contrast": 0.8, "Visible": true}
	  ]
	}`
}

func TestParseScenarioValid(t *testing.T) {
	s, err := ParseScenario([]byte(validJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "test-chase" || s.TotalFrames() != 20 {
		t.Fatalf("parsed: %+v", s)
	}
	// The parsed scenario must render.
	frames := s.Render(1)
	if len(frames) != 20 {
		t.Fatalf("rendered %d frames", len(frames))
	}
	if frames[0].GT.Empty() {
		t.Fatal("visible segment rendered no target")
	}
}

func TestParseScenarioRoundTrip(t *testing.T) {
	orig := Scenario1()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.TotalFrames() != orig.TotalFrames() {
		t.Fatal("round trip changed scenario")
	}
	// Renders must be identical.
	a := orig.Render(3)
	b := back.Render(3)
	for i := range a {
		if !a[i].Image.Equal(b[i].Image) {
			t.Fatalf("frame %d differs after round trip", i)
		}
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		name string
		edit func(s *Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "needs a name"},
		{"bad size", func(s *Scenario) { s.W = 0 }, "frame size"},
		{"no segments", func(s *Scenario) { s.Segments = nil }, "no segments"},
		{"zero frames", func(s *Scenario) { s.Segments[0].Frames = 0 }, "frames"},
		{"bad texture", func(s *Scenario) { s.Segments[0].Texture = 99 }, "texture"},
		{"bad contrast", func(s *Scenario) { s.Segments[0].Contrast = 1.5 }, "contrast"},
		{"bad path", func(s *Scenario) { s.Segments[0].ToX = 9 }, "outside"},
		{"bad distance", func(s *Scenario) { s.Segments[0].DistTo = 2 }, "distance"},
		{"bad noise", func(s *Scenario) { s.Segments[0].NoiseStd = -1 }, "noise"},
	}
	for _, c := range cases {
		s, err := ParseScenario([]byte(validJSON()))
		if err != nil {
			t.Fatal(err)
		}
		c.edit(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid scenario", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseScenarioMalformedJSON(t *testing.T) {
	if _, err := ParseScenario([]byte("{nope")); err == nil {
		t.Fatal("malformed JSON should fail")
	}
}

func TestBuiltinScenariosValidate(t *testing.T) {
	for _, s := range EvaluationSuite() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}
