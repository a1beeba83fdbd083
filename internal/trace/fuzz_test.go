package trace

import (
	"bytes"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to Read. Whatever it accepts,
// WriteTo re-serializes to exactly the bytes Read consumed: the format
// has one encoding per trace, and Read neither invents nor drops a
// field.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	tr := &Trace{Events: []Event{{PC: 4}, {PC: 8, Addr: 0x1000, Flags: FlagLoad}, {PC: 12, Addr: 0x2000, Flags: FlagStore}}, Stalls: 3}
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		got, err := Read(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("WriteTo gives %d bytes %x, Read consumed %d bytes %x", out.Len(), out.Bytes(), len(consumed), consumed)
		}
	})
}
