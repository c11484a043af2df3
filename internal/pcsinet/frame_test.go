package pcsinet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// A frame goes out in one Write, and frames of every size (including ones
// larger than ReadFrame's growth step) read back unchanged.
func TestFrameRoundTripOneWrite(t *testing.T) {
	for _, size := range []int{0, 1, 1024, frameChunk - 40, 3*frameChunk + 17} {
		m := &wire.Message{Op: OpPut, Key: "ref-x", Headers: map[string]string{"a": "b"}, Body: bytes.Repeat([]byte{7}, size)}
		var w countingWriter
		if err := WriteFrame(&w, m); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("body %d B: WriteFrame made %d writes, want 1", size, w.writes)
		}
		if n := binary.BigEndian.Uint32(w.Bytes()); int(n) != w.Len()-4 {
			t.Fatalf("body %d B: prefix says %d, payload is %d", size, n, w.Len()-4)
		}
		got, err := ReadFrame(&w)
		if err != nil {
			t.Fatalf("body %d B: %v", size, err)
		}
		if got.Op != m.Op || got.Key != m.Key || !bytes.Equal(got.Body, m.Body) || got.Headers["a"] != "b" {
			t.Fatalf("body %d B: read back %+v", size, got)
		}
		if _, err := ReadFrame(&w); err != io.EOF {
			t.Fatalf("body %d B: read past the last frame: %v, want io.EOF", size, err)
		}
	}
}

// A header that declares a MaxFrame payload costs the reader only what the
// peer actually sent, not the declared length.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	for _, sent := range []int{0, 100 << 10} {
		in := binary.BigEndian.AppendUint32(nil, MaxFrame)
		in = append(in, make([]byte, sent)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d payload bytes then EOF: err = %v, want io.ErrUnexpectedEOF", sent, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*sent+4*frameChunk); got > limit {
			t.Fatalf("%d payload bytes then EOF: allocated %d B, want at most %d", sent, got, limit)
		}
	}
	over := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(over)); err != ErrFrameTooLarge {
		t.Fatalf("oversized header: err = %v, want ErrFrameTooLarge", err)
	}
}

// frame returns m as one encoded frame.
func frame(m *wire.Message) []byte {
	var b bytes.Buffer
	WriteFrame(&b, m) //nolint:errcheck // writes to a buffer cannot fail
	return b.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	get := frame(&wire.Message{Op: OpGet, Key: "ref-0123"})
	f.Add(get)
	f.Add(frame(&wire.Message{Status: StatusOK, Body: []byte("payload")}))
	f.Add(append(get, get...))
	f.Add(get[:len(get)-1])
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			m, err := ReadFrame(r)
			if err != nil {
				return
			}
			// Whatever was accepted frames and reads back unchanged.
			back, err := ReadFrame(bytes.NewReader(frame(m)))
			if err != nil || !reflect.DeepEqual(m, back) {
				t.Fatalf("re-framed %+v read back as %+v, %v", m, back, err)
			}
		}
	})
}
