package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"baps/internal/bufpool"
)

// MaxDocBytes is the largest document body the live system will carry on any
// path — origin fetch, peer fetch-forward, direct-forward relay, or browser
// agent receive. Oversized bodies are rejected with ErrDocTooLarge (and a
// metric) rather than silently truncated.
const MaxDocBytes int64 = 128 << 20

// maxDocBytes is the live limit; tests shrink it to exercise the rejection
// path without moving 128 MiB bodies.
var maxDocBytes = MaxDocBytes

// ErrDocTooLarge reports a body that exceeded MaxDocBytes.
var ErrDocTooLarge = errors.New("proxy: document exceeds max size")

// drainCap bounds how much of a response body a drain will consume to hand
// the connection back to the keep-alive pool. Anything longer is cheaper to
// abandon (closing the connection) than to read.
const drainCap = 256 << 10

// DrainClose discards up to drainCap bytes of resp.Body through a pooled
// buffer and closes it. It is the required way to finish with a response
// whose body is irrelevant: the bounded drain keeps the connection reusable
// without letting a hostile or buggy server feed an unbounded discard
// (io.Copy(io.Discard, body) reads forever). Shared with the browser agent.
func DrainClose(resp *http.Response) {
	if resp == nil || resp.Body == nil {
		return
	}
	buf := bufpool.Get(bufpool.TierSmall)
	io.CopyBuffer(io.Discard, io.LimitReader(resp.Body, drainCap), *buf)
	bufpool.Put(buf)
	resp.Body.Close()
}

// statusError is a reply whose status the call did not ask for: anything but
// 200 to a document GET, anything outside 2xx to an instruction POST. Its
// body has been drained.
type statusError struct {
	code   int
	status string
}

func (e *statusError) Error() string { return "status " + e.status }

// notHeld reports a 404: the holder or sibling answered but does not have
// the document, so its entry is pruned without a breaker charge. It is the
// one such test, for every forwarding mode and for siblings.
func notHeld(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusNotFound
}

// getDoc sends one document GET and reads a 200's body through readDoc; an
// oversize body counts on doc_too_large. Any other status is a
// *statusError. Nothing is hashed here: a digest is derived only when a
// consumer needs one (withDigest, fetchFromPeer).
func (s *Server) getDoc(c *http.Client, req *http.Request) (body []byte, hdr http.Header, err error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		DrainClose(resp)
		return nil, nil, &statusError{code: resp.StatusCode, status: resp.Status}
	}
	defer resp.Body.Close()
	body, err = readDoc(resp.Body, resp.ContentLength)
	if err != nil {
		if errors.Is(err, ErrDocTooLarge) {
			s.m.docTooLarge.Inc()
		}
		return nil, nil, err
	}
	return body, resp.Header, nil
}

// Post sends one instruction POST of body (nil: empty) to target with the
// given header name/value pairs, drains the reply, and reports a non-2xx
// status as a *statusError. Every POST the proxy and the browser agent send
// whose reply they do not read goes through it.
func Post(ctx context.Context, c *http.Client, target string, body []byte, hdr ...string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	DrainClose(resp)
	if resp.StatusCode/100 != 2 {
		return &statusError{code: resp.StatusCode, status: resp.Status}
	}
	return nil
}

// readDoc reads a full document body in one pass, capped at maxDocBytes.
// contentLength, when known (>= 0), pre-sizes the destination buffer
// exactly, replacing io.ReadAll's quadratic-ish grow pattern with a single
// allocation. The returned buffer is freshly owned by the caller.
func readDoc(r io.Reader, contentLength int64) ([]byte, error) {
	if contentLength > maxDocBytes {
		return nil, fmt.Errorf("%w (%d > %d bytes)", ErrDocTooLarge, contentLength, maxDocBytes)
	}
	if contentLength >= 0 {
		body := make([]byte, contentLength)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	// Unknown length: grow chunk by chunk through a pooled buffer.
	var body []byte
	chunk := bufpool.Get(bufpool.TierMed)
	defer bufpool.Put(chunk)
	for {
		n, err := r.Read(*chunk)
		if n > 0 {
			if int64(len(body))+int64(n) > maxDocBytes {
				return nil, fmt.Errorf("%w (> %d bytes)", ErrDocTooLarge, maxDocBytes)
			}
			body = append(body, (*chunk)[:n]...)
		}
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// relayStream is a direct-forward document in flight: the holder's push
// request body, handed from handleRelay to the /fetch goroutine that serves
// it straight to the requester through a pooled copy buffer. The proxy never
// buffers the document.
//
// Hand-off protocol: the consumer either claims the stream (and must then
// finish it with the copy result) or finishes it unclaimed (abandonment).
// handleRelay blocks the holder's push until finish, so the body reader
// stays valid for the entire copy.
type relayStream struct {
	r      io.Reader
	length int64 // Content-Length of the push, -1 when unknown
	// mark is the watermark header the holder pushed with, relayed as
	// received: the proxy never sees this body's digest.
	mark    string
	claimed chan struct{} // closed by the consumer just before copying
	done    chan error    // buffered(1): copy result or abandonment
}

func newRelayStream(r io.Reader, length int64) *relayStream {
	return &relayStream{
		r:       r,
		length:  length,
		claimed: make(chan struct{}),
		done:    make(chan error, 1),
	}
}

// claim commits this goroutine to copying the stream. Exactly one consumer
// may claim.
func (rs *relayStream) claim() { close(rs.claimed) }

// finish reports the stream's fate (nil: fully copied; non-nil: aborted or
// abandoned), releasing the holder's blocked push. Idempotent under the
// one-consumer protocol: only the first result is kept.
func (rs *relayStream) finish(err error) {
	select {
	case rs.done <- err:
	default:
	}
}

// errRelayAbandoned marks a delivered relay stream nobody served (the
// requester vanished or the origin hedge already won).
var errRelayAbandoned = errors.New("relay stream abandoned")

// cappedReader errors with ErrDocTooLarge once more than limit bytes have
// been read — the streaming backstop for relay pushes that lie about (or
// omit) their Content-Length.
type cappedReader struct {
	r         io.Reader
	remaining int64 // limit+1 at start; hitting 0 means the limit was passed
}

func newCappedReader(r io.Reader, limit int64) *cappedReader {
	return &cappedReader{r: r, remaining: limit + 1}
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, ErrDocTooLarge
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.r.Read(p)
	c.remaining -= int64(n)
	return n, err
}
