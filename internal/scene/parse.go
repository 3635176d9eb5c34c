package scene

import (
	"encoding/json"
	"fmt"

	"repro/internal/img"
)

// ParseScenario decodes a scenario definition from JSON and validates it.
// The format is the exported Scenario structure, e.g.:
//
//	{
//	  "Name": "my-chase",
//	  "W": 72, "H": 72,
//	  "Segments": [
//	    {"Name": "approach", "Frames": 200, "Texture": 1,
//	     "IntensityFrom": 150, "IntensityTo": 150,
//	     "FromX": 0.2, "FromY": 0.5, "ToX": 0.8, "ToY": 0.5,
//	     "DistFrom": 0.4, "DistTo": 0.2, "Contrast": 0.8, "Visible": true}
//	  ]
//	}
//
// cmd/shiftsim and the render tool accept these files, so new workloads can
// be evaluated without recompiling.
func ParseScenario(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scene: parse scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural invariants the renderer depends on.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scene: scenario needs a name")
	}
	if s.W <= 0 || s.H <= 0 {
		return fmt.Errorf("scene: scenario %q has invalid frame size %dx%d", s.Name, s.W, s.H)
	}
	if len(s.Segments) == 0 {
		return fmt.Errorf("scene: scenario %q has no segments", s.Name)
	}
	for i, seg := range s.Segments {
		if seg.Frames <= 0 {
			return fmt.Errorf("scene: scenario %q segment %d (%q) has %d frames",
				s.Name, i, seg.Name, seg.Frames)
		}
		if seg.Texture < img.TextureFlat || seg.Texture > img.TextureUrban {
			return fmt.Errorf("scene: scenario %q segment %d has unknown texture %d",
				s.Name, i, seg.Texture)
		}
		if seg.Contrast < 0 || seg.Contrast > 1 {
			return fmt.Errorf("scene: scenario %q segment %d contrast %v outside [0,1]",
				s.Name, i, seg.Contrast)
		}
		if bad, v := outsideUnitBox(seg); bad != "" {
			return fmt.Errorf("scene: scenario %q segment %d %s=%v outside [-0.5,1.5]",
				s.Name, i, bad, v)
		}
		if seg.DistFrom < 0 || seg.DistFrom > 1 || seg.DistTo < 0 || seg.DistTo > 1 {
			return fmt.Errorf("scene: scenario %q segment %d distance outside [0,1]", s.Name, i)
		}
		if seg.NoiseStd < 0 {
			return fmt.Errorf("scene: scenario %q segment %d negative noise", s.Name, i)
		}
	}
	return nil
}

// outsideUnitBox checks the path endpoints; a margin of 0.5 is allowed so
// targets can enter and leave the frame (scenario 2's departure).
func outsideUnitBox(seg Segment) (string, float64) {
	check := map[string]float64{
		"FromX": seg.FromX, "FromY": seg.FromY, "ToX": seg.ToX, "ToY": seg.ToY,
	}
	for name, v := range check {
		if v < -0.5 || v > 1.5 {
			return name, v
		}
	}
	return "", 0
}
