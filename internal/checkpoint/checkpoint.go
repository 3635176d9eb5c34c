// Package checkpoint defines the durable wire format for serving-session
// checkpoints: the self-describing byte encoding a coordinator journals to
// survive worker crashes and ships across process boundaries to migrate
// streams (internal/distrib).
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "SHFTCKPT"
//	version uint32   (currently 1)
//	section*         repeated until end of input:
//	    id      uint32
//	    length  uint32
//	    payload [length]byte
//	    crc     uint32   IEEE CRC-32 of payload
//
// Sections carry the stream identity and cursor (including the frame source
// by reference — scenario name, render seed, frame count — since scenarios
// re-render deterministically and inlining pixels would dwarf the
// checkpoint), the served records and timings, the portable policy state,
// the residency manifest, and free-form metrics counters. Unknown section
// ids are skipped so minor additive fields do not bump the version; layout
// changes do.
//
// The format reads and writes the serving layers' own checkpoint types, one
// per layer: every exported field of runtime.SessionSnapshot, and for a SHIFT
// policy the pipeline.State with every field of its sched.State. Their
// validity checks live with them: Encode and Decode run
// runtime.SessionSnapshot.Check, and the encoder runs sched.State.Check.
//
// Decode is total: any corrupt, truncated or future-version input returns a
// typed error (ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt) and never
// panics. Decoding allocates nothing the input's own length does not justify
// and takes no residency references — refs appear only when the rebuilt
// snapshot is restored, and the restore path releases them on failure.
//
// Encoding is deterministic: the same checkpoint always serializes to the
// same bytes (counters are sorted), so journal digests are stable. The
// committed FuzzDecode seeds are the encoder's own output and pin them.
//
// A Journal encodes successive checkpoints of one stream. It keeps the
// records and timings sections' bytes, so a write encodes only the frames
// served since the previous one, into a buffer it reuses. Encode is a
// Journal's first call: one body holds the layout, and both produce the
// same bytes.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// magic opens every checkpoint; version gates the layout.
const (
	magic   = "SHFTCKPT"
	version = 1
)

// Section ids. New sections append; reusing an id is a version bump.
const (
	secStream    = 1
	secRecords   = 2
	secTimings   = 3
	secPolicy    = 4
	secResidency = 5
	secCounters  = 6
)

// Policy-state kinds within secPolicy.
const (
	policyNone  = 0 // non-portable policy: restore re-learns via Reset
	policyShift = 1 // pipeline.State: scheduler decision state + active pair
)

// Typed decode errors. Decode wraps them with context; match with errors.Is.
var (
	ErrBadMagic  = errors.New("checkpoint: bad magic")
	ErrVersion   = errors.New("checkpoint: unsupported version")
	ErrTruncated = errors.New("checkpoint: truncated input")
	ErrCorrupt   = errors.New("checkpoint: corrupt input")
)

// Checkpoint is the decoded form: the session checkpoint plus the frame
// source by reference and the journal's metrics counters.
type Checkpoint struct {
	// Session is the checkpoint the wire carries. Decode leaves its frames
	// unset; the caller re-supplies them (runtime.SessionSnapshot.SetFrames)
	// before restoring it.
	Session *runtime.SessionSnapshot
	// Scenario and RenderSeed name the frame source: the stream's frames
	// are the first Session.FrameCount frames of Scenario rendered with
	// RenderSeed.
	Scenario   string
	RenderSeed uint64
	// Counters carries journal metadata (sequence numbers, replay counts);
	// the format does not interpret them.
	Counters map[string]uint64
}

// EncodeSnapshot serializes a live session checkpoint: the common case where
// the caller holds a *runtime.SessionSnapshot and the stream's frame-source
// reference.
func EncodeSnapshot(snap *runtime.SessionSnapshot, scenario string, renderSeed uint64, counters map[string]uint64) ([]byte, error) {
	return Encode(&Checkpoint{
		Session:    snap,
		Scenario:   scenario,
		RenderSeed: renderSeed,
		Counters:   counters,
	})
}

// Encode serializes a checkpoint. It fails on a session that fails its Check
// and on state the format cannot carry (an unrecognized portable-policy type,
// an inconsistent scheduler state) rather than dropping it silently.
// It is a Journal's first call, so the bytes are the caller's own.
func Encode(c *Checkpoint) ([]byte, error) {
	var j Journal
	return j.Encode(c)
}

// Journal encodes successive checkpoints of one stream. It keeps the records
// and timings sections' encoded bytes between calls, so a call encodes only
// the records and timings served since the previous one; the other sections
// are small and are encoded every time. The document is written into a
// buffer the Journal reuses. The bytes are those Encode produces for the
// same checkpoint, because Encode is a Journal's first call and both run the
// same section code.
//
// A zero Journal is ready to use. It is not safe for concurrent use.
type Journal struct {
	// recs and tims hold the records and timings payloads, less their count
	// prefix, for the first n entries of the slices whose first elements
	// are rec0 and tim0.
	recs, tims writer
	n          int
	rec0       *runtime.FrameRecord
	tim0       *runtime.FrameTiming
	// meta is scratch for the stream, policy, residency and counters
	// payloads, written back to back; names is scratch for sorting counters.
	meta  writer
	names []string
	out   []byte
}

// Encode serializes c, as the package-level Encode does. The returned bytes
// live in the Journal's buffer: they stay valid until the next call, which
// overwrites them. A failed call leaves them intact.
//
// The cached records and timings are reused when c's slices extend the ones
// the previous call saw: the same first element, and no fewer entries. That
// holds between snapshots of one session, whose results are append-only
// (runtime.Session.Snapshot shares them). Any other slice, such as a
// restored session's or a decoded checkpoint's, is encoded from its start.
// Records and timings already passed in must not change.
func (j *Journal) Encode(c *Checkpoint) ([]byte, error) {
	if c.Session == nil {
		return nil, fmt.Errorf("checkpoint: encode with no session")
	}
	d := c.Session
	if err := d.Check(); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}

	// The small sections go to scratch first. A policy state the format
	// cannot carry fails here, before the document buffer, which still
	// holds the previous call's bytes, is touched.
	m := &j.meta
	m.buf = m.buf[:0]
	encodeStream(m, c)
	streamEnd := len(m.buf)
	if err := encodePolicy(m, d.PolicyState); err != nil {
		return nil, err
	}
	policyEnd := len(m.buf)
	m.bool(d.HaveHeld)
	m.pair(d.Held)
	heldEnd := len(m.buf)
	j.encodeCounters(c.Counters)

	growing := j.extend(d.Records, d.Timings, d.FrameCount)

	// Header, six section frames, two count prefixes and the payloads.
	size := len(magic) + 4 + 6*12 + 2*8 + len(m.buf) + len(j.recs.buf) + len(j.tims.buf)
	if growing {
		// Room for the rest of the stream's frames at the bytes per frame
		// so far, so the buffer is allocated about once per stream.
		size += (d.FrameCount - j.n) * (len(j.recs.buf) + len(j.tims.buf)) / j.n
	}
	w := writer{buf: reserve(j.out[:0], size)}
	w.bytes([]byte(magic))
	w.u32(version)
	w.section(secStream, m.buf[:streamEnd])
	s := w.open(secRecords)
	w.i64(int64(j.n))
	w.bytes(j.recs.buf)
	w.seal(s)
	s = w.open(secTimings)
	w.i64(int64(j.n))
	w.bytes(j.tims.buf)
	w.seal(s)
	w.section(secPolicy, m.buf[streamEnd:policyEnd])
	w.section(secResidency, m.buf[policyEnd:heldEnd])
	w.section(secCounters, m.buf[heldEnd:])
	j.out = w.buf
	return w.buf, nil
}

// extend brings the cached records and timings up to recs and tims, which
// have equal lengths, and reports whether it added to entries an earlier
// call cached: the mark of a live stream. It starts over unless they extend
// what is cached. A live stream's caches are sized for all frameCount
// frames at the bytes per frame so far, so they too are allocated about
// once. (A decoded checkpoint's slices have no room to grow in place, so
// its frame count, which the input sets, never sizes anything here.)
func (j *Journal) extend(recs []runtime.FrameRecord, tims []runtime.FrameTiming, frameCount int) bool {
	if len(recs) == 0 || len(recs) < j.n || &recs[0] != j.rec0 || &tims[0] != j.tim0 {
		j.recs.buf, j.tims.buf, j.n = j.recs.buf[:0], j.tims.buf[:0], 0
		j.rec0, j.tim0 = nil, nil
		if len(recs) > 0 {
			j.rec0, j.tim0 = &recs[0], &tims[0]
		}
	}
	growing := j.n > 0 && len(recs) > j.n
	if growing {
		j.recs.buf = reserve(j.recs.buf, frameCount*len(j.recs.buf)/j.n)
		j.tims.buf = reserve(j.tims.buf, frameCount*len(j.tims.buf)/j.n)
	}
	for i := j.n; i < len(recs); i++ {
		encodeRecord(&j.recs, &recs[i])
		encodeTiming(&j.tims, &tims[i])
	}
	j.n = len(recs)
	return growing
}

// reserve returns b with capacity for at least c bytes.
func reserve(b []byte, c int) []byte { return slices.Grow(b, max(0, c-len(b))) }

func encodeStream(p *writer, c *Checkpoint) {
	d := c.Session
	p.str(d.Name)
	p.str(d.PolicyName)
	p.f64(d.PeriodSec)
	p.i64(int64(d.FrameCount))
	p.i64(int64(d.Next))
	p.i64(int64(d.Base))
	p.i64(int64(d.Done))
	p.i64(int64(d.Deadline))
	p.pair(d.Prev)
	p.str(c.Scenario)
	p.u64(c.RenderSeed)
}

func encodeRecord(p *writer, r *runtime.FrameRecord) {
	p.i64(int64(r.Index))
	p.pair(r.Pair)
	p.bool(r.Found)
	p.f64(r.Conf)
	p.f64(r.IoU)
	p.f64(r.Box.X)
	p.f64(r.Box.Y)
	p.f64(r.Box.W)
	p.f64(r.Box.H)
	p.f64(r.LatSec)
	p.f64(r.EnergyJ)
	p.bool(r.Swapped)
	p.bool(r.LoadedModel)
	p.bool(r.Rescheduled)
	p.f64(r.Similarity)
	p.f64(r.Gate)
}

func encodeTiming(p *writer, t *runtime.FrameTiming) {
	p.i64(int64(t.Arrival))
	p.i64(int64(t.Start))
	p.i64(int64(t.Done))
	p.i64(int64(t.Wait))
	p.i64(int64(t.Deadline))
}

// encodeCounters appends the counters payload to the meta scratch, sorted
// by name so the bytes do not depend on map order.
func (j *Journal) encodeCounters(counters map[string]uint64) {
	j.names = j.names[:0]
	for name := range counters {
		j.names = append(j.names, name)
	}
	sort.Strings(j.names)
	p := &j.meta
	p.i64(int64(len(j.names)))
	for _, name := range j.names {
		p.str(name)
		p.u64(counters[name])
	}
}

// Decode parses a serialized checkpoint. The input is untrusted: every read
// is bounds-checked, every section CRC-verified, and failures return typed
// errors — never a panic, never an oversized allocation.
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	r := reader{b: b, off: len(magic), truncErr: ErrTruncated}
	if v := r.u32(); v != version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, version)
	}

	c := &Checkpoint{Session: &runtime.SessionSnapshot{}, Counters: map[string]uint64{}}
	seen := map[uint32]bool{}
	var haveStream bool
	for r.remaining() > 0 && r.err == nil {
		id := r.u32()
		payload := r.block()
		crc := r.u32()
		if r.err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("%w: section %d fails CRC", ErrCorrupt, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		seen[id] = true
		// Sub-reads past a CRC-valid payload's end mean a malformed
		// encoding, not a short input.
		p := reader{b: payload, truncErr: ErrCorrupt}
		var err error
		switch id {
		case secStream:
			err = decodeStream(&p, c)
			haveStream = err == nil
		case secRecords:
			err = decodeRecords(&p, c.Session)
		case secTimings:
			err = decodeTimings(&p, c.Session)
		case secPolicy:
			err = decodePolicy(&p, c.Session)
		case secResidency:
			c.Session.HaveHeld = p.bool()
			c.Session.Held = p.pair()
			err = p.close(id)
		case secCounters:
			err = decodeCounters(&p, c)
		default:
			// Unknown section: an additive field from a newer minor
			// revision. The CRC already vouched for it; skip.
		}
		if err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if !haveStream {
		return nil, fmt.Errorf("%w: no stream section", ErrCorrupt)
	}
	// Every v1 section is mandatory: a checkpoint cut at a section boundary
	// has intact framing, and only this census catches it.
	for id := uint32(secStream); id <= secCounters; id++ {
		if !seen[id] {
			return nil, fmt.Errorf("%w: missing section %d", ErrTruncated, id)
		}
	}
	// Cross-section invariants: a violation means crafted or corrupted
	// input that slipped past the per-section CRCs.
	if err := c.Session.Check(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return c, nil
}

func decodeStream(p *reader, c *Checkpoint) error {
	d := c.Session
	d.Name = p.str()
	d.PolicyName = p.str()
	d.PeriodSec = p.f64()
	d.FrameCount = p.int()
	d.Next = p.int()
	d.Base = p.dur()
	d.Done = p.dur()
	d.Deadline = p.dur()
	d.Prev = p.pair()
	c.Scenario = p.str()
	c.RenderSeed = p.u64()
	return p.close(secStream)
}

func decodeRecords(p *reader, d *runtime.SessionSnapshot) error {
	// A record serializes to ≥ 62 bytes; the count can never exceed what
	// the payload could hold, so a crafted count cannot force a huge
	// allocation.
	n := p.count(62)
	recs := make([]runtime.FrameRecord, 0, n)
	for i := 0; i < n; i++ {
		var rec runtime.FrameRecord
		rec.Index = p.int()
		rec.Pair = p.pair()
		rec.Found = p.bool()
		rec.Conf = p.f64()
		rec.IoU = p.f64()
		rec.Box.X = p.f64()
		rec.Box.Y = p.f64()
		rec.Box.W = p.f64()
		rec.Box.H = p.f64()
		rec.LatSec = p.f64()
		rec.EnergyJ = p.f64()
		rec.Swapped = p.bool()
		rec.LoadedModel = p.bool()
		rec.Rescheduled = p.bool()
		rec.Similarity = p.f64()
		rec.Gate = p.f64()
		recs = append(recs, rec)
	}
	d.Records = recs
	return p.close(secRecords)
}

func decodeTimings(p *reader, d *runtime.SessionSnapshot) error {
	n := p.count(40)
	ts := make([]runtime.FrameTiming, 0, n)
	for i := 0; i < n; i++ {
		var t runtime.FrameTiming
		t.Arrival = p.dur()
		t.Start = p.dur()
		t.Done = p.dur()
		t.Wait = p.dur()
		t.Deadline = p.dur()
		ts = append(ts, t)
	}
	d.Timings = ts
	return p.close(secTimings)
}

func decodeCounters(p *reader, c *Checkpoint) error {
	n := p.count(12)
	for i := 0; i < n; i++ {
		name := p.str()
		val := p.u64()
		if p.err != nil {
			break
		}
		if _, dup := c.Counters[name]; dup {
			return fmt.Errorf("%w: duplicate counter %q", ErrCorrupt, name)
		}
		c.Counters[name] = val
	}
	return p.close(secCounters)
}

// encodePolicy serializes the portable policy state. The format knows the
// concrete types it carries; an unknown type is an encode error so callers
// find out at checkpoint time, not at a failed restore after a crash.
func encodePolicy(p *writer, state any) error {
	switch st := state.(type) {
	case nil:
		p.u8(policyNone)
		return nil
	case *pipeline.State:
		p.u8(policyShift)
		p.pair(st.Cur)
		return encodeSchedState(p, st.Sched)
	default:
		return fmt.Errorf("checkpoint: unencodable policy state %T", state)
	}
}

func encodeSchedState(p *writer, d *sched.State) error {
	if err := d.Check(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	n := len(d.Models)
	p.i64(int64(n))
	for i := 0; i < n; i++ {
		p.str(d.Models[i])
		p.i64(int64(len(d.Bufs[i])))
		for _, v := range d.Bufs[i] {
			p.f64(v)
		}
		p.f64(d.RVals[i])
		p.bool(d.RSet[i])
		p.bool(d.Valid[i])
	}
	p.image(d.LastImg)
	p.image(d.LastBox)
	p.u64(d.ImgSum)
	p.u64(d.ImgSumSq)
	p.u64(d.BoxSum)
	p.u64(d.BoxSumSq)
	p.i64(int64(d.BoxFlip))
	return nil
}

func decodePolicy(p *reader, d *runtime.SessionSnapshot) error {
	switch kind := p.u8(); {
	case p.err != nil:
		return p.err
	case kind == policyNone:
		return p.close(secPolicy)
	case kind == policyShift:
		cur := p.pair()
		st := decodeSchedState(p)
		if err := p.close(secPolicy); err != nil {
			return err
		}
		d.PolicyState = &pipeline.State{Sched: st, Cur: cur}
		return nil
	default:
		return fmt.Errorf("%w: unknown policy state kind %d", ErrCorrupt, kind)
	}
}

// decodeSchedState reads a scheduler state; its per-model slices agree by
// construction. Read failures stick in p.
func decodeSchedState(p *reader) *sched.State {
	n := p.count(16)
	d := &sched.State{
		Models: make([]string, 0, n),
		Bufs:   make([][]float64, 0, n),
		RVals:  make([]float64, 0, n),
		RSet:   make([]bool, 0, n),
		Valid:  make([]bool, 0, n),
	}
	for i := 0; i < n; i++ {
		d.Models = append(d.Models, p.str())
		m := p.count(8)
		buf := make([]float64, 0, m)
		for j := 0; j < m; j++ {
			buf = append(buf, p.f64())
		}
		d.Bufs = append(d.Bufs, buf)
		d.RVals = append(d.RVals, p.f64())
		d.RSet = append(d.RSet, p.bool())
		d.Valid = append(d.Valid, p.bool())
	}
	d.LastImg = p.image()
	d.LastBox = p.image()
	d.ImgSum = p.u64()
	d.ImgSumSq = p.u64()
	d.BoxSum = p.u64()
	d.BoxSumSq = p.u64()
	d.BoxFlip = p.int()
	return d
}
