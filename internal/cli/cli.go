// Package cli holds flag plumbing shared by the Druzhba command-line tools:
// the hardware-configuration flag set (pipeline dimensions, atoms, datapath
// width), machine code loading and optimization-level parsing.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// ConfigFlags registers the hardware-spec flags on a flag set and returns a
// builder to call after parsing.
type ConfigFlags struct {
	Depth         *int
	Width         *int
	PHVLen        *int
	Bits          *int
	Stateful      *string
	Stateless     *string
	StatefulFile  *string
	StatelessFile *string
}

// AddConfigFlags registers -depth, -width, -phvlen, -bits, -stateful,
// -stateless and the custom ALU DSL file flags. Loading ALUs from files is
// what makes Druzhba "a family of simulators, one for each possible
// pipeline configuration" (§3.1).
func AddConfigFlags(fs *flag.FlagSet) *ConfigFlags {
	return &ConfigFlags{
		Depth:         fs.Int("depth", 1, "pipeline depth (number of stages)"),
		Width:         fs.Int("width", 1, "pipeline width (ALUs of each kind per stage)"),
		PHVLen:        fs.Int("phvlen", 0, "PHV containers (0 = width)"),
		Bits:          fs.Int("bits", 32, "datapath bit width"),
		Stateful:      fs.String("stateful", "", "stateful atom name ("+strings.Join(atoms.StatefulNames(), ", ")+"; empty = none)"),
		Stateless:     fs.String("stateless", "stateless_full", "stateless ALU name ("+strings.Join(atoms.StatelessNames(), ", ")+")"),
		StatefulFile:  fs.String("stateful-file", "", "load the stateful ALU from an ALU DSL file (overrides -stateful)"),
		StatelessFile: fs.String("stateless-file", "", "load the stateless ALU from an ALU DSL file (overrides -stateless)"),
	}
}

// loadALUFile parses an ALU DSL file and checks its kind.
func loadALUFile(path string, want aludsl.ALUKind) (*aludsl.Program, error) {
	src, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := aludsl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if p.Kind != want {
		return nil, fmt.Errorf("%s: ALU is %s, want %s", path, p.Kind, want)
	}
	p.Name = path
	return p, nil
}

// Spec builds the core.Spec from the parsed flags.
func (c *ConfigFlags) Spec() (core.Spec, error) {
	w, err := phv.NewWidth(*c.Bits)
	if err != nil {
		return core.Spec{}, err
	}
	s := core.Spec{Depth: *c.Depth, Width: *c.Width, PHVLen: *c.PHVLen, Bits: w}
	if *c.StatelessFile != "" {
		s.StatelessALU, err = loadALUFile(*c.StatelessFile, aludsl.Stateless)
		if err != nil {
			return core.Spec{}, err
		}
	} else {
		s.StatelessALU, err = atoms.Load(*c.Stateless)
		if err != nil {
			return core.Spec{}, err
		}
		if s.StatelessALU.Kind != aludsl.Stateless {
			return core.Spec{}, fmt.Errorf("-stateless %s: %q is a stateful atom", *c.Stateless, *c.Stateless)
		}
	}
	switch {
	case *c.StatefulFile != "":
		s.StatefulALU, err = loadALUFile(*c.StatefulFile, aludsl.Stateful)
		if err != nil {
			return core.Spec{}, err
		}
	case *c.Stateful != "":
		s.StatefulALU, err = atoms.Load(*c.Stateful)
		if err != nil {
			return core.Spec{}, err
		}
		if s.StatefulALU.Kind != aludsl.Stateful {
			return core.Spec{}, fmt.Errorf("-stateful %s: %q is a stateless ALU", *c.Stateful, *c.Stateful)
		}
	}
	return s, nil
}

// LoadMachineCode reads a machine code file, or stdin when path is "-".
func LoadMachineCode(path string) (*machinecode.Program, error) {
	if path == "-" {
		return machinecode.Parse(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return machinecode.Parse(f)
}

// ParseFieldMap parses "name=container,name=container" bindings.
func ParseFieldMap(s string) (domino.FieldMap, error) {
	fm := domino.FieldMap{}
	if s == "" {
		return fm, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad field binding %q (want name=container)", part)
		}
		idx, err := strconv.Atoi(kv[1])
		if err != nil {
			return nil, fmt.Errorf("bad container index in %q: %v", part, err)
		}
		fm[kv[0]] = idx
	}
	return fm, nil
}

// ReadFile loads a file, or stdin when path is "-".
func ReadFile(path string) (string, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Fatalf prints an error and exits non-zero.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
