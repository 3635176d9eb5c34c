package img

import (
	"bufio"
	"fmt"
	"io"
)

// WritePGM encodes the image as binary PGM (P5), the simplest portable
// grayscale format — viewable with any image tool. Used by cmd/render to
// dump synthesized frames for visual inspection of the scene generator.
func (m *Image) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", m.W, m.H); err != nil {
		return err
	}
	if _, err := bw.Write(m.Pix); err != nil {
		return err
	}
	return bw.Flush()
}
