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
	tr := &Trace{Stalls: 3}
	tr.Add(4, false, false)
	tr.Add(8, true, false)
	tr.Add(12, false, true)
	tr.Add(0x40, false, false)
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
