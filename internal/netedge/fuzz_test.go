package netedge

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the stream reader as one
// connection's inbound stream and reads frames until the stream ends or a
// frame is rejected. No input may panic the reader, every rejection wraps
// ErrBadFrame or ErrFrameTooBig, and every frame it accepts re-encodes to
// bytes that parse back to the same frame.
func FuzzReadFrame(f *testing.F) {
	const maxFrame = 4096
	req := appendFrame(nil, frameRequest, 7, "gateway.submit", []byte("payload"))
	ok := appendFrame(nil, frameOK, 1<<40, "", []byte("tx-id"))
	rej := appendFrame(nil, frameError, 0, "", []byte("rejected"))
	for _, seed := range [][]byte{
		req, ok, rej,
		append(append(append([]byte(nil), req...), ok...), rej...),
		appendFrame(nil, frameRequest, 1, "", nil),
		appendFrame(nil, 0x7f, 1, "", []byte("unknown kind")),
		req[:len(req)-3], // truncated body
		req[:2],          // truncated length prefix
		{0, 0, 0, 0},     // zero-length frame
		{0, 0, 0, 1, frameOK},
		binary.BigEndian.AppendUint32(nil, maxFrame+1), // oversized prefix
		{0xff, 0xff, 0xff, 0xff, frameRequest},
		{0, 0, 0, 3, frameRequest, 1, 9}, // topic longer than the frame
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			fr, nbuf, err := readFrame(br, buf, maxFrame)
			buf = nbuf
			if err == io.EOF {
				return // the stream ended on a frame boundary
			}
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooBig) {
					t.Fatalf("rejection %v wraps neither ErrBadFrame nor ErrFrameTooBig", err)
				}
				return
			}
			enc := appendFrame(nil, fr.kind, fr.id, fr.topic, fr.body)
			if n := binary.BigEndian.Uint32(enc); int(n) != len(enc)-4 {
				t.Fatalf("re-encoded length prefix %d, frame has %d bytes", n, len(enc)-4)
			}
			back, err := parseFrame(enc[4:])
			if err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
			if back.kind != fr.kind || back.id != fr.id || back.topic != fr.topic || !bytes.Equal(back.body, fr.body) {
				t.Fatalf("round trip changed the frame: %+v -> %+v", fr, back)
			}
		}
	})
}
