package runtime

import "testing"

func TestStaleIoU(t *testing.T) {
	frames := testFrames(t)
	rec := FrameRecord{Found: true, IoU: 0.8, Box: frames[0].GT}
	// Against its own frame the stale score equals a perfect overlap.
	if got := staleIoU(rec, frames[0]); got != 1 {
		t.Fatalf("self stale IoU %v", got)
	}
	// Against the departed segment there is no GT.
	if got := staleIoU(rec, frames[len(frames)-1]); got != 0 {
		t.Fatalf("stale IoU vs empty GT %v", got)
	}
	if got := staleIoU(FrameRecord{}, frames[0]); got != 0 {
		t.Fatalf("miss stale IoU %v", got)
	}
}
