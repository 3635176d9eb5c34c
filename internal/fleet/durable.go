package fleet

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/runtime"
)

// DurabilityConfig enables the durable checkpoint journal — the in-process
// model of the coordinator's crash-recovery store (internal/distrib runs the
// same protocol across real processes). When set, the fleet serializes every
// admitted stream's checkpoint through the versioned wire format
// (internal/checkpoint) at admission and again every EveryFrames served
// frames. The journal is the only state a crash fault preserves: frames
// served after the last journal entry are lost with the process and replayed
// after recovery.
//
// Durability is required for FaultCrash schedules and changes nothing else:
// a fleet with Durability set but no crash faults produces bit-identical
// results to one without (journaling only reads session state).
type DurabilityConfig struct {
	// EveryFrames is the journal cadence in served frames per stream
	// (<= 0: default 10). Smaller means less replay after a crash and more
	// journal bytes.
	EveryFrames int
}

// defaultJournalEvery is the journal cadence when the config leaves it zero.
const defaultJournalEvery = 10

func (dc *DurabilityConfig) every() int {
	if dc.EveryFrames <= 0 {
		return defaultJournalEvery
	}
	return dc.EveryFrames
}

// journalEntry is one stream's journal: its latest durable checkpoint, as
// the encoded wire bytes (exactly what a coordinator would have on disk), and
// the encoder that wrote them. The encoder keeps the stream's encoded
// records and timings, so a write encodes only the frames served since the
// last one, and it reuses one buffer for the bytes, which each write
// overwrites.
type journalEntry struct {
	enc  checkpoint.Journal
	data []byte
}

// commitJournal stamps the next global journal sequence number, serializes
// the checkpoint through the wire format and replaces the stream's journal
// entry. Encoding exercises the same bytes a real coordinator would
// persist, so journal size metrics are honest. It runs in global event
// order (commit, admission), so the embedded sequence numbers — and so the
// exact journal bytes — are the same at every region count. With the audit
// armed (tests only), every write is checked against a one-shot
// checkpoint.Encode of the same checkpoint.
func (f *Fleet) commitJournal(as *activeSession, snap *runtime.SessionSnapshot) error {
	f.journalSeq++
	// The in-process recovery path re-supplies frames directly, so the
	// checkpoint's render seed stays zero.
	c := &checkpoint.Checkpoint{
		Session:  snap,
		Scenario: as.req.Scenario,
		Counters: map[string]uint64{
			"journal_seq": f.journalSeq,
			"served":      uint64(snap.Served()),
		},
	}
	e := f.journalStore[as.out]
	if e == nil {
		e = &journalEntry{}
	}
	data, err := e.enc.Encode(c)
	if err != nil {
		return fmt.Errorf("fleet: journal %s: %w", as.out.Name, err)
	}
	if f.audit {
		if want, err := checkpoint.Encode(c); err != nil || !bytes.Equal(data, want) {
			panic(fmt.Sprintf("fleet: journal write %d for %s differs from a one-shot encode (%d vs %d bytes, err %v)",
				f.journalSeq, as.out.Name, len(data), len(want), err))
		}
	}
	e.data = data
	f.journalStore[as.out] = e
	f.journalWrites++
	f.journalBytes += int64(len(data))
	return nil
}

// journalDue advances the per-stream journal cadence after a served frame
// and reports whether a checkpoint write is due.
func (f *Fleet) journalDue(as *activeSession) bool {
	if f.durable == nil {
		return false
	}
	as.sinceJournal++
	if as.sinceJournal < f.durable.every() {
		return false
	}
	as.sinceJournal = 0
	return true
}

// journalOnAdmit seeds a just-placed stream's journal entry, so a crash can
// never catch a stream with no durable checkpoint at all.
func (f *Fleet) journalOnAdmit(as *activeSession) error {
	if f.durable == nil {
		return nil
	}
	return f.commitJournal(as, as.sess.Snapshot())
}

// recoverJournal is a crash's checkpoint for one stream: the process died,
// so the session is closed without a drain (the OS reclaiming its
// references) and the checkpoint is rebuilt from the stream's last journal
// entry. The frames served since are lost work, metered as replay.
func (f *Fleet) recoverJournal(as *activeSession) (*runtime.SessionSnapshot, error) {
	entry := f.journalStore[as.out]
	if entry == nil {
		return nil, fmt.Errorf("no journaled checkpoint")
	}
	if err := as.sess.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	c, err := checkpoint.Decode(entry.data)
	if err != nil {
		return nil, fmt.Errorf("decode journal: %w", err)
	}
	snap := c.Session
	if err := snap.SetFrames(as.req.Frames); err != nil {
		return nil, fmt.Errorf("rebuild checkpoint: %w", err)
	}
	lost := len(as.sess.Result().Result.Records) - snap.Served()
	as.out.ReplayedFrames += lost
	f.replayedFrames += lost
	return snap, nil
}

// crash models a worker process dying under a stream load — kill -9, OOM, a
// rolling restart's hard phase. Unlike an outage, nothing live survives: the
// sessions' in-memory state is gone (no drain snapshot), residency is wiped
// (loader.Flush), and every displaced stream resumes from its last journaled
// checkpoint, replaying the frames served since. Premium streams re-queue
// first; best-effort streams are shed outright when the surviving fleet has
// fewer free admission slots than displaced streams — graceful degradation
// instead of an unbounded premium queue.
func (f *Fleet) crash(d *Device, at time.Duration, queue *[]*pending) error {
	d.crashes++
	f.crashes++
	moved, err := f.evacuate(d, at, true)
	if err != nil {
		return err
	}
	d.displaced += len(moved)
	if err := d.DML.Flush(); err != nil {
		return fmt.Errorf("fleet: crash on %s: %w", d.Name, err)
	}

	// Premium ahead of best-effort (stable within each class, preserving
	// admission order); then shed best-effort streams from the tail while
	// the displaced set exceeds the surviving fleet's free slots.
	sort.SliceStable(moved, func(i, j int) bool {
		return !moved[i].req.BestEffort && moved[j].req.BestEffort
	})
	if f.adm.PerDeviceStreams > 0 {
		slack := 0
		for _, c := range f.candidates() {
			slack += f.adm.PerDeviceStreams - len(c.sessions)
		}
		for len(moved) > slack && moved[len(moved)-1].req.BestEffort {
			p := moved[len(moved)-1]
			moved = moved[:len(moved)-1]
			p.out.Shed = true
			p.out.Stream = p.snap.Partial()
			delete(f.journalStore, p.out)
			if f.rec != nil {
				f.rec.Shed()
			}
		}
	}
	requeue(queue, moved)
	return nil
}
