package fleet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/rng"
)

// FaultKind classifies device failures.
type FaultKind int

// Supported fault kinds.
const (
	// FaultOutage takes the device down for Duration: in-flight streams are
	// checkpointed and migrated away, and the device rejoins placement when
	// the outage ends (residency intact — a connectivity loss, not a wipe).
	FaultOutage FaultKind = iota
	// FaultDeath removes the device permanently.
	FaultDeath
	// FaultBrownout multiplies the device's execution latency (accel
	// TimeScale) by Factor for Duration — thermal throttling or a noisy
	// neighbor. Streams stay put and simply run slower.
	FaultBrownout
	// FaultCrash kills the device's worker process: kill -9, OOM, or the
	// hard phase of a rolling restart. Unlike an outage, nothing live
	// survives — in-memory session state is gone and residency is wiped —
	// so streams resume from their last durable checkpoint, replaying the
	// frames served since. Requires the fleet's Durability journal; Duration
	// is the restart time (0: instant restart, > 0: rolling restart during
	// which the device is out of placement).
	FaultCrash
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultOutage:
		return "outage"
	case FaultDeath:
		return "death"
	case FaultBrownout:
		return "brownout"
	case FaultCrash:
		return "crash"
	default:
		return "unknown"
	}
}

// Fault is one scheduled failure of one device.
type Fault struct {
	// Device names the fleet member the fault hits.
	Device string
	// Kind selects the failure mode.
	Kind FaultKind
	// At is the onset time on the global virtual clock.
	At time.Duration
	// Duration is how long an outage or brownout lasts (ignored for death).
	Duration time.Duration
	// Factor is the brownout latency multiplier (> 1 is slower).
	Factor float64
}

// FaultConfig parameterizes the seeded fault-schedule generator, the failure
// counterpart of WorkloadConfig: identical configs generate identical
// schedules bit-for-bit, independent of fleet composition.
type FaultConfig struct {
	// Seed drives every draw.
	Seed uint64
	// RatePerSec is the mean fleet-wide fault arrival rate (a Poisson process
	// realized through exponential inter-arrival draws).
	RatePerSec float64
	// Horizon bounds fault onsets: faults fire in [0, Horizon).
	Horizon time.Duration
	// POutage, PDeath, PBrownout and PCrash weight the kind drawn per fault
	// (normalized; all zero means the default 0.5/0.2/0.3
	// outage/death/brownout mix). PCrash > 0 requires the fleet's
	// Durability journal; leaving it zero keeps the generated schedule
	// bit-identical to builds without the crash fault class.
	POutage, PDeath, PBrownout, PCrash float64
}

// The shape of a generated fault: outages, brownouts and crash restarts
// last an exponential draw around their mean, a brownout multiplies the
// device's latency by brownoutFactor, and at most maxDeaths devices die —
// always leaving at least one un-killed, so a schedule alone can never
// strand the workload forever.
const (
	meanOutageSec       = 8
	meanBrownoutSec     = 15
	meanCrashRestartSec = 5
	brownoutFactor      = 2.5
	maxDeaths           = 1
)

// DefaultFaultConfig returns a schedule shape that exercises every failure
// mode a few times over a multi-minute serving window.
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{
		Seed:       1,
		RatePerSec: 1.0 / 30,
		Horizon:    120 * time.Second,
		POutage:    0.5,
		PDeath:     0.2,
		PBrownout:  0.3,
	}
}

// GenerateFaults expands a config into a concrete schedule over the named
// devices: exponential inter-onset gaps, device and kind drawn per fault, and
// transient lengths drawn exponentially. Devices are addressed in sorted-name
// order, so the schedule is invariant to listing order; generation consumes
// only its own forked stream. Deaths stop once maxDeaths (or device count - 1)
// devices have been condemned — the remaining mass falls to outages.
func GenerateFaults(cfg FaultConfig, devices []string) ([]Fault, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("fleet: fault schedule needs devices")
	}
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("fleet: fault schedule needs a positive rate, got %v", cfg.RatePerSec)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("fleet: fault schedule needs a positive horizon, got %v", cfg.Horizon)
	}
	if cfg.POutage == 0 && cfg.PDeath == 0 && cfg.PBrownout == 0 && cfg.PCrash == 0 {
		def := DefaultFaultConfig()
		cfg.POutage, cfg.PDeath, cfg.PBrownout = def.POutage, def.PDeath, def.PBrownout
	}
	if cfg.POutage < 0 || cfg.PDeath < 0 || cfg.PBrownout < 0 || cfg.PCrash < 0 {
		return nil, fmt.Errorf("fleet: negative fault kind weight")
	}
	names := append([]string(nil), devices...)
	sort.Strings(names)

	deathBudget := min(maxDeaths, len(names)-1)
	dead := map[string]bool{}

	r := rng.New(cfg.Seed).Fork("fleet/faults")
	total := cfg.POutage + cfg.PDeath + cfg.PBrownout + cfg.PCrash
	var faults []Fault
	at := time.Duration(0)
	for {
		gap := -math.Log(1-r.Float64()) / cfg.RatePerSec
		at += time.Duration(gap * float64(time.Second))
		if at >= cfg.Horizon {
			return faults, nil
		}
		name := names[r.Intn(len(names))]
		f := Fault{Device: name, At: at}
		// With PCrash == 0 the brownout case absorbs the whole remaining mass
		// (u < total always), so pre-crash configs draw bit-identical
		// schedules.
		switch u := r.Float64() * total; {
		case u < cfg.POutage:
			f.Kind = FaultOutage
		case u < cfg.POutage+cfg.PDeath:
			f.Kind = FaultDeath
		case u < cfg.POutage+cfg.PDeath+cfg.PBrownout:
			f.Kind = FaultBrownout
		default:
			f.Kind = FaultCrash
		}
		// A death past the budget (or of an already-dead device) degrades to
		// an outage, keeping the draw sequence intact.
		if f.Kind == FaultDeath && (len(dead) >= deathBudget || dead[name]) {
			f.Kind = FaultOutage
		}
		switch f.Kind {
		case FaultOutage:
			f.Duration = time.Duration(-math.Log(1-r.Float64()) * meanOutageSec * float64(time.Second))
		case FaultDeath:
			dead[name] = true
		case FaultBrownout:
			f.Duration = time.Duration(-math.Log(1-r.Float64()) * meanBrownoutSec * float64(time.Second))
			f.Factor = brownoutFactor
		case FaultCrash:
			f.Duration = time.Duration(-math.Log(1-r.Float64()) * meanCrashRestartSec * float64(time.Second))
		}
		faults = append(faults, f)
	}
}

// faultEvent is one edge of a fault on the global event loop: its onset, or
// the recovery ending a transient fault.
type faultEvent struct {
	at       time.Duration
	fault    Fault
	recovery bool
}

// expandFaults validates a schedule against the fleet and expands it into
// time-ordered events. Ties order onsets before recoveries, then device name —
// every run of the same schedule replays the same edge order.
func (f *Fleet) expandFaults(faults []Fault) ([]faultEvent, error) {
	var evs []faultEvent
	for _, ft := range faults {
		if f.device(ft.Device) == nil {
			return nil, fmt.Errorf("fleet: fault names unknown device %q", ft.Device)
		}
		if ft.At < 0 {
			return nil, fmt.Errorf("fleet: fault on %s at negative time %v", ft.Device, ft.At)
		}
		switch ft.Kind {
		case FaultOutage, FaultBrownout:
			if ft.Duration <= 0 {
				return nil, fmt.Errorf("fleet: %s on %s needs a positive duration", ft.Kind, ft.Device)
			}
			if ft.Kind == FaultBrownout && ft.Factor <= 0 {
				return nil, fmt.Errorf("fleet: brownout on %s needs a positive factor", ft.Device)
			}
			evs = append(evs, faultEvent{at: ft.At, fault: ft})
			evs = append(evs, faultEvent{at: ft.At + ft.Duration, fault: ft, recovery: true})
		case FaultCrash:
			if ft.Duration < 0 {
				return nil, fmt.Errorf("fleet: crash on %s has negative restart time %v", ft.Device, ft.Duration)
			}
			if f.durable == nil {
				return nil, fmt.Errorf("fleet: crash on %s requires the Durability journal", ft.Device)
			}
			evs = append(evs, faultEvent{at: ft.At, fault: ft})
			evs = append(evs, faultEvent{at: ft.At + ft.Duration, fault: ft, recovery: true})
		case FaultDeath:
			evs = append(evs, faultEvent{at: ft.At, fault: ft})
		default:
			return nil, fmt.Errorf("fleet: unknown fault kind %d", ft.Kind)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.recovery != b.recovery {
			return !a.recovery
		}
		return a.fault.Device < b.fault.Device
	})
	return evs, nil
}

// device returns the fleet member with the given name, or nil.
func (f *Fleet) device(name string) *Device {
	for _, d := range f.devices {
		if d.Name == name {
			return d
		}
	}
	return nil
}
