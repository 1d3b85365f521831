package netedge

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Errors of the edge protocol and flow control.
var (
	// ErrBadFrame is returned (wrapped) for every malformed stream frame.
	// Like the codec v2 decode errors it is a rejection, never a panic:
	// lengths are validated before any allocation or slice.
	ErrBadFrame = errors.New("netedge: malformed stream frame")
	// ErrFrameTooBig is returned when a frame's length prefix exceeds the
	// configured maximum — the bound that keeps a hostile peer from making
	// the edge allocate arbitrarily.
	ErrFrameTooBig = errors.New("netedge: frame exceeds size limit")
	// ErrBackpressure is returned (server: to the connection being shed,
	// client: to the caller) when a bounded queue or in-flight window is
	// full and the endpoint runs in shedding mode instead of blocking.
	ErrBackpressure = errors.New("netedge: outbound queue full")
	// ErrClosed is returned for operations on a closed client or server.
	ErrClosed = errors.New("netedge: connection closed")
)

// Frame kinds on the stream.
const (
	frameRequest = 0x01 // client -> server: uvarint id, topic, payload
	frameOK      = 0x02 // server -> client: uvarint id, reply payload
	frameError   = 0x03 // server -> client: uvarint id, error text
)

// DefaultMaxFrame bounds a frame's encoded size (length prefix excluded)
// unless overridden: 1 MiB holds any plausible envelope while keeping a
// hostile length prefix from reserving real memory.
const DefaultMaxFrame = 1 << 20

// appendFrame encodes one stream frame — length prefix, kind, id, topic
// (requests only; pass "" for replies), body — into dst and returns the
// extended slice. The frame is built in one pass with the length patched
// in, so callers can encode into a pooled buffer.
func appendFrame(dst []byte, kind byte, id uint64, topic string, body []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length placeholder
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, id)
	if kind == frameRequest {
		dst = binary.AppendUvarint(dst, uint64(len(topic)))
		dst = append(dst, topic...)
	}
	dst = append(dst, body...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// frame is one decoded stream frame. topic is set for requests only; body
// aliases the read buffer it was parsed from and is valid until the next
// read on that buffer.
type frame struct {
	kind  byte
	id    uint64
	topic string
	body  []byte
}

// parseFrame decodes the post-length-prefix bytes of one frame. body (and
// for requests topic, which is copied to a string) alias b.
func parseFrame(b []byte) (frame, error) {
	var f frame
	if len(b) < 2 {
		return f, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(b))
	}
	f.kind = b[0]
	b = b[1:]
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return f, fmt.Errorf("%w: truncated request id", ErrBadFrame)
	}
	f.id = id
	b = b[n:]
	switch f.kind {
	case frameRequest:
		tl, n := binary.Uvarint(b)
		if n <= 0 {
			return f, fmt.Errorf("%w: truncated topic length", ErrBadFrame)
		}
		b = b[n:]
		if tl > uint64(len(b)) {
			return f, fmt.Errorf("%w: topic length %d exceeds remaining %d bytes", ErrBadFrame, tl, len(b))
		}
		f.topic = string(b[:tl])
		f.body = b[tl:]
	case frameOK, frameError:
		f.body = b
	default:
		return f, fmt.Errorf("%w: unknown frame kind 0x%02x", ErrBadFrame, f.kind)
	}
	return f, nil
}

// readFrame reads one length-prefixed frame from br into buf (grown as
// needed, reused across calls) and parses it. The returned frame aliases
// buf. maxFrame rejects hostile length prefixes before any allocation.
func readFrame(br *bufio.Reader, buf []byte, maxFrame int) (frame, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			// The stream ended inside a length prefix: a truncated frame,
			// like a body cut short. A clean io.EOF is the end of stream.
			err = fmt.Errorf("%w: truncated length prefix", ErrBadFrame)
		}
		return frame{}, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return frame{}, buf, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, n, maxFrame)
	}
	if n < 2 {
		return frame{}, buf, fmt.Errorf("%w: length prefix %d", ErrBadFrame, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return frame{}, buf, fmt.Errorf("%w: truncated body: %v", ErrBadFrame, err)
	}
	f, err := parseFrame(buf)
	return f, buf, err
}

// WireError is a server-side rejection carried back over the stream: the
// remote error's text, which preserves the middleware sentinel messages
// ("session token bound to another connection", "malformed binary frame",
// ...) even though the error values themselves cannot cross a socket.
type WireError struct {
	Msg string
}

// Error implements error.
func (e *WireError) Error() string { return "netedge: server: " + e.Msg }
