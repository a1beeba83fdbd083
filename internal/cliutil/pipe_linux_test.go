package cliutil

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"ccrp/internal/asm"
)

// TestLoadProgramPipe: an image that arrives through a pipe loads, as
// with ccsim <(cat prog.img). A pipe yields its bytes once, so a second
// read of the path would find it empty.
func TestLoadProgramPipe(t *testing.T) {
	src, err := asm.Assemble("tiny", tinySource)
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The image is far below the pipe's buffer, so the write cannot block.
	if err := src.WriteImage(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProgram(fmt.Sprintf("/proc/self/fd/%d", r.Fd()), "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Text, src.Text) || p.Entry != src.Entry {
		t.Error("image through a pipe lost program content")
	}
}
