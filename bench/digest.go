package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/runtime"
)

// FNV-1a over 64-bit words: each step is a bijection of the running hash
// for a fixed word, so changing any single word of a stream's frame
// sequence always changes the stream's hash.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func mix(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// frameHasher hashes per-frame records. Consecutive frames almost always
// share a pair, so it caches the hashes of the last model and processor
// names it saw.
type frameHasher struct {
	model, proc   string
	modelH, procH uint64
}

// stream hashes one stream's frames: pair, found, IoU bits, start and done
// of every frame, in order.
func (fh *frameHasher) stream(sr *runtime.StreamResult) (uint64, int) {
	h := uint64(fnvOffset)
	recs := sr.Result.Records
	for i := range recs {
		r := &recs[i]
		if r.Pair.Model != fh.model {
			fh.model, fh.modelH = r.Pair.Model, hashString(r.Pair.Model)
		}
		if r.Pair.ProcID != fh.proc {
			fh.proc, fh.procH = r.Pair.ProcID, hashString(r.Pair.ProcID)
		}
		found := uint64(0)
		if r.Found {
			found = 1
		}
		h = mix(h, uint64(r.Index))
		h = mix(h, fh.modelH)
		h = mix(h, fh.procH)
		h = mix(h, uint64(r.Pair.Kind)<<1|found)
		h = mix(h, math.Float64bits(r.IoU))
		tm := &sr.Timings[i]
		h = mix(h, uint64(tm.Start))
		h = mix(h, uint64(tm.Done))
	}
	return h, len(recs)
}

// fleetDigest reduces a fleet run to a digest. Departing streams are hashed
// in the OnDepart hook and their records released, as the scale sweep does,
// so a day-long trace keeps a flat memory profile; streams that never
// depart (rejected, aborted, shed) are hashed from their outcomes after the
// run.
type fleetDigest struct {
	index  map[string]int // stream name -> offered index
	hashes []uint64
	frames []int
	done   []bool
	fh     frameHasher
}

func newFleetDigest(reqs []fleet.StreamRequest) *fleetDigest {
	d := &fleetDigest{
		index:  make(map[string]int, len(reqs)),
		hashes: make([]uint64, len(reqs)),
		frames: make([]int, len(reqs)),
		done:   make([]bool, len(reqs)),
	}
	for i := range reqs {
		d.index[reqs[i].Name] = i
	}
	return d
}

// depart is the fleet.Config.OnDepart hook.
func (d *fleetDigest) depart(out *fleet.StreamOutcome) {
	i := d.index[out.Name]
	d.hashes[i], d.frames[i] = d.fh.stream(out.Stream)
	d.done[i] = true
	out.Stream = nil
}

// sum folds the run into its hex digest and returns it with the number of
// frames served. The digest covers every offered stream's device path,
// flags, admission time, migrations, replayed frames and frame hash, and
// the run's counters.
func (d *fleetDigest) sum(res *fleet.Result) (string, int) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	flag := func(b bool, bit uint64) uint64 {
		if b {
			return bit
		}
		return 0
	}
	frames := 0
	for _, out := range res.Outcomes {
		i := d.index[out.Name]
		if !d.done[i] && out.Stream != nil {
			d.hashes[i], d.frames[i] = d.fh.stream(out.Stream)
		}
		frames += d.frames[i]
		str(out.Name)
		str(out.Device)
		put(uint64(len(out.Devices)))
		for _, dev := range out.Devices {
			str(dev)
		}
		put(flag(out.Rejected, 1) | flag(out.Aborted, 2) | flag(out.Shed, 4) | flag(out.BestEffort, 8))
		put(uint64(out.AdmittedAt))
		put(uint64(out.Migrations))
		put(uint64(out.ReplayedFrames))
		put(uint64(d.frames[i]))
		put(d.hashes[i])
	}
	for _, v := range []int{res.Offered, res.Served, res.Rejected, res.Aborted, res.Shed,
		res.Migrations, res.Crashes, res.ReplayedFrames, res.JournalWrites} {
		put(uint64(v))
	}
	put(uint64(res.JournalBytes))
	put(uint64(res.Events))
	put(uint64(res.Horizon))
	return hex.EncodeToString(h.Sum(nil)[:16]), frames
}

// tableDigest hashes every (method, scenario) cell's summary of a Table III
// result, in the table's row and scenario order.
func tableDigest(cells []metrics.Summary) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range cells {
		put(uint64(len(s.Method)))
		h.Write([]byte(s.Method))
		put(uint64(s.Frames))
		for _, f := range []float64{s.AvgIoU, s.AvgTimeSec, s.AvgEnergyJ, s.SuccessRate, s.NonGPUFrac, s.PairsUsed} {
			put(math.Float64bits(f))
		}
		put(uint64(s.Swaps))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// tableCells summarizes a Table III result per cell, methods in row order
// and scenarios in suite order, the order tableDigest hashes.
func tableCells(res *experiments.TableIIIResult, scenarios []string) []metrics.Summary {
	var cells []metrics.Summary
	for _, m := range tableMethods() {
		for _, sc := range scenarios {
			s := metrics.Summarize(res.PerScenario[m.name][sc])
			s.Method = m.name
			cells = append(cells, s)
		}
	}
	return cells
}
