package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// fuzzCodec checks that c.Decode never panics and that whatever it accepts
// re-encodes to bytes that decode and encode again to the same bytes.
func fuzzCodec(t *testing.T, c Codec, data []byte) *Message {
	m1, err := c.Decode(data)
	if err != nil {
		return nil
	}
	b1, err := c.Encode(m1)
	if err != nil {
		t.Fatalf("%s: re-encoding a decoded message: %v", c.Name(), err)
	}
	m2, err := c.Decode(b1)
	if err != nil {
		t.Fatalf("%s: decoding a re-encoded message: %v", c.Name(), err)
	}
	b2, err := c.Encode(m2)
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: encoding not stable: %q then %q", c.Name(), b1, b2)
	}
	return m1
}

func FuzzBinaryDecode(f *testing.F) {
	for _, m := range []*Message{sample(), {}, {Op: "put", Key: "ref-1", Body: make([]byte, 300)}} {
		b, _ := BinaryCodec{}.Encode(m)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzCodec(t, BinaryCodec{}, data)
		if m == nil {
			return
		}
		// The binary codec loses nothing: the decoded message survives a
		// round trip field for field.
		b, _ := BinaryCodec{}.Encode(m)
		back, _ := BinaryCodec{}.Decode(b)
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed %+v into %+v", m, back)
		}
	})
}

func FuzzJSONDecode(f *testing.F) {
	for _, m := range []*Message{sample(), {}} {
		b, _ := JSONCodec{}.Encode(m)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCodec(t, JSONCodec{}, data)
	})
}

// A header count read from the input sizes nothing the input cannot back:
// a few bytes declaring millions of headers allocate only a little.
func TestBinaryDecodeHeaderCountBounded(t *testing.T) {
	in := binary.AppendUvarint([]byte{0, 0, 0, 0}, 1<<24)
	in = append(in, 1, 'k', 1, 'v')
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := BinaryCodec{}.Decode(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a message whose headers are missing")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("decoding %d bytes allocated %d B", len(in), got)
	}
}
