package asm_test

// The front-end tests assemble against both backends; linking them into
// the test binary registers them. The package proper stays free of
// concrete ISA imports.
import (
	_ "ccrp/internal/mips"
	_ "ccrp/internal/riscv"
)
