// Package pcsinet exposes a PCSI deployment over a real TCP connection
// using the stateful binary protocol the paper advocates: clients open
// references once and then operate through compact, capability-bearing
// frames — no per-request credential round trips, no text envelopes.
//
// The wire format is a 4-byte big-endian length prefix followed by a
// wire.BinaryCodec message. References never leave the server; clients
// hold unguessable tokens mapped to capabilities server-side (the classic
// "swiss number" pattern).
//
// A frame costs one write: WriteFrame encodes the message after a reserved
// prefix and writes both together. Server and Client read through a
// per-connection bufio.Reader, so a frame's header and payload usually
// arrive in one read. ReadFrame grows its buffer only as payload bytes
// arrive, so what a frame costs the reader follows the bytes the peer has
// sent, not the length (up to MaxFrame) that it declares.
//
// The server runs each request as a simulation process on the goroutine
// of the connection that carried it (sim.Env.RunProc), one request at a
// time on the deployment's single virtual timeline. The clock advances by
// each request's simulated service time, so virtual-time behaviour on the
// daemon (idle reaping, anti-entropy, lease expiry) follows simulated time
// rather than the number of requests.
package pcsinet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/wire"
)

// Protocol operations.
const (
	OpCreate   = "create"    // Headers: kind, mutability?, consistency?, ephemeral?
	OpPut      = "put"       // Key: token; Body: data
	OpGet      = "get"       // Key: token
	OpAppend   = "append"    // Key: token; Body: data
	OpFreeze   = "freeze"    // Key: token; Headers: level
	OpStat     = "stat"      // Key: token
	OpAttenu   = "attenuate" // Key: token; Headers: rights
	OpDrop     = "drop"      // Key: token
	OpMkdirNS  = "mkns"      // create a namespace; returns ns token
	OpCreateAt = "createat"  // Key: ns token; Headers: path, kind
	OpOpen     = "open"      // Key: ns token; Headers: path, rights
	OpList     = "list"      // Key: ns token; Headers: path
	OpRemove   = "remove"    // Key: ns token; Headers: path
	OpInvoke   = "invoke"    // Key: fn token; Body: request body
	OpStats    = "stats"     // deployment counters
	OpSockSend = "socksend"  // Key: token; Headers: end; Body: message
	OpSockRecv = "sockrecv"  // Key: token; Headers: end
	OpSockEnd  = "sockclose" // Key: token
)

// Status codes.
const (
	StatusOK    = 200
	StatusError = 400
)

// MaxFrame bounds a single protocol frame.
const MaxFrame = 64 << 20

// ErrFrameTooLarge is returned for oversized frames.
var ErrFrameTooLarge = errors.New("pcsinet: frame exceeds MaxFrame")

var codec = wire.BinaryCodec{}

// frameChunk is how far ReadFrame allocates ahead of the payload bytes
// that have arrived. Past it the buffer at most doubles per step, so
// memory stays within about twice what the peer has actually sent.
const frameChunk = 64 << 10

// WriteFrame writes one length-prefixed message with a single Write.
func WriteFrame(w io.Writer, m *wire.Message) error {
	buf := codec.Append(make([]byte, 4, 4+64+len(m.Body)), m)
	n := len(buf) - 4
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed message. A stream that ends inside
// a frame yields io.ErrUnexpectedEOF; one that ends between frames, io.EOF.
func ReadFrame(r io.Reader) (*wire.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	var payload []byte
	for len(payload) < n {
		step := min(n-len(payload), max(len(payload), frameChunk))
		payload = slices.Grow(payload, step)
		if _, err := io.ReadFull(r, payload[len(payload):len(payload)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		payload = payload[:len(payload)+step]
	}
	return codec.Decode(payload)
}

// errResp builds an error response.
func errResp(err error) *wire.Message {
	return &wire.Message{Status: StatusError, Headers: map[string]string{"error": err.Error()}}
}

// okResp builds a success response.
func okResp(body []byte, headers map[string]string) *wire.Message {
	return &wire.Message{Status: StatusOK, Body: body, Headers: headers}
}

// RespError extracts the error from a response, if any.
func RespError(m *wire.Message) error {
	if m.Status == StatusOK {
		return nil
	}
	if m.Headers != nil && m.Headers["error"] != "" {
		return fmt.Errorf("pcsinet: %s", m.Headers["error"])
	}
	return fmt.Errorf("pcsinet: status %d", m.Status)
}
