package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestSegmentFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a longer payload with bytes \x00\xff")}
	for i, p := range payloads {
		if err := WriteSegmentFrame(&buf, byte('A'+i), p); err != nil {
			t.Fatalf("WriteSegmentFrame %d: %v", i, err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	var scratch []byte
	for i, want := range payloads {
		kind, payload, buf2, err := ReadSegmentFrame(r, scratch, 1<<20)
		scratch = buf2
		if err != nil {
			t.Fatalf("ReadSegmentFrame %d: %v", i, err)
		}
		if kind != byte('A'+i) || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: kind %c payload %q, want %c %q", i, kind, payload, 'A'+i, want)
		}
	}
	if _, _, _, err := ReadSegmentFrame(r, scratch, 1<<20); err != io.EOF {
		t.Fatalf("at end: err = %v, want io.EOF", err)
	}
}

func TestSegmentFrameTears(t *testing.T) {
	frame := func(kind byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := WriteSegmentFrame(&b, kind, payload); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	whole := frame('B', []byte("payload"))

	cases := map[string][]byte{
		"torn header":  whole[:4],
		"torn payload": whole[:len(whole)-2],
		"corrupt CRC":  append(append([]byte{}, whole[:len(whole)-1]...), whole[len(whole)-1]^0x40),
		"unknown kind": frame('Z', []byte("payload")),
		"over long":    {'B', 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0},
	}
	for name, data := range cases {
		_, _, _, err := ReadSegmentFrame(bytes.NewReader(data), nil, 1<<20, 'B')
		if !errors.Is(err, ErrTornSegment) {
			t.Errorf("%s: err = %v, want ErrTornSegment", name, err)
		}
	}

	// Without a kind restriction, any kind byte is accepted.
	kind, payload, _, err := ReadSegmentFrame(bytes.NewReader(frame('Z', []byte("x"))), nil, 1<<20)
	if err != nil || kind != 'Z' || string(payload) != "x" {
		t.Fatalf("unrestricted read: kind %c payload %q err %v", kind, payload, err)
	}
}
