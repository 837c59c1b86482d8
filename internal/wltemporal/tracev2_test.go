package wltemporal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadTraceBoundsPreallocation feeds a header that declares 2^21
// arrivals and then ends. The arrival count is untrusted input, so the
// failed read must not have allocated room for all of them (2^21
// arrivals take about 50 MB).
func TestReadTraceBoundsPreallocation(t *testing.T) {
	data := binary.AppendUvarint([]byte("OLBW2\n\x00\x00"), 1<<21)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a trace whose arrivals are missing")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("failed read of a %d-byte input allocated %d bytes", len(data), alloc)
	}
}

// FuzzReadTrace holds the decoder to its contract on arbitrary input:
// it never panics, and any input it accepts re-encodes to exactly the
// same bytes (the format is strict in both directions).
func FuzzReadTrace(f *testing.F) {
	for _, tr := range badTraces() {
		f.Add(tr.encode())
	}
	small := *recordTrace(f, 1)
	small.Arrivals = small.Arrivals[:min(len(small.Arrivals), 16)]
	var buf bytes.Buffer
	if err := small.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got := tr.encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}
