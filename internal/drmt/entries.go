package drmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"druzhba/internal/p4"
)

// Entry is one match+action table entry in the paper's configuration format
// (§4.2): "(1) the table that the entry will be added to, (2) the packet
// field to be matched on, (3) the type of match to perform (e.g. ternary,
// exact), and (4) the corresponding action to be executed if there is a
// match".
type Entry struct {
	Table  string
	Field  string
	Kind   p4.MatchKind
	Key    int64
	Mask   int64 // ternary only; ignored for exact
	Action p4.ActionCall
}

// EntrySet holds the entries of every table, in priority (insertion) order.
type EntrySet struct {
	byTable map[string][]Entry
}

// NewEntrySet returns an empty entry set.
func NewEntrySet() *EntrySet {
	return &EntrySet{byTable: map[string][]Entry{}}
}

// Add appends an entry to its table (lowest index = highest priority).
func (s *EntrySet) Add(e Entry) {
	s.byTable[e.Table] = append(s.byTable[e.Table], e)
}

// ForTable returns the entries of one table in priority order.
func (s *EntrySet) ForTable(name string) []Entry {
	return s.byTable[name]
}

// Len reports the total number of entries.
func (s *EntrySet) Len() int {
	n := 0
	//dvet:nondeterministic-ok pure sum, order-free
	for _, es := range s.byTable {
		n += len(es)
	}
	return n
}

// Matches reports whether the entry matches a packet field value.
func (e *Entry) Matches(value int64) bool {
	if e.Kind == p4.MatchTernary {
		return value&e.Mask == e.Key&e.Mask
	}
	return value == e.Key
}

// ParseEntries reads the text configuration format, one entry per line:
//
//	<table> <header.field> exact <key> <action>(<arg>,...)
//	<table> <header.field> ternary <key>/<mask> <action>(<arg>,...)
//
// '#' starts a comment; blank lines are ignored. Entries are validated
// against the program: the table must exist, the field must be one of the
// table's reads with the same match kind, the key (and a ternary mask) must
// be a value of the field's width, and the action must be listed by the
// table with the right argument count.
func ParseEntries(r io.Reader, prog *p4.Program) (*EntrySet, error) {
	set := NewEntrySet()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 5 {
			return nil, fmt.Errorf("drmt: entries line %d: want 5 columns, got %d", lineNo, len(fields))
		}
		e := Entry{Table: fields[0], Field: fields[1]}
		switch fields[2] {
		case "exact":
			e.Kind = p4.MatchExact
			k, err := strconv.ParseInt(fields[3], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("drmt: entries line %d: bad key %q", lineNo, fields[3])
			}
			e.Key = k
		case "ternary":
			e.Kind = p4.MatchTernary
			parts := strings.SplitN(fields[3], "/", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("drmt: entries line %d: ternary key must be key/mask", lineNo)
			}
			k, err := strconv.ParseInt(parts[0], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("drmt: entries line %d: bad key %q", lineNo, parts[0])
			}
			m, err := strconv.ParseInt(parts[1], 0, 64)
			if err != nil {
				return nil, fmt.Errorf("drmt: entries line %d: bad mask %q", lineNo, parts[1])
			}
			e.Key, e.Mask = k, m
		default:
			return nil, fmt.Errorf("drmt: entries line %d: unknown match kind %q", lineNo, fields[2])
		}
		call, err := parseActionCall(fields[4])
		if err != nil {
			return nil, fmt.Errorf("drmt: entries line %d: %v", lineNo, err)
		}
		e.Action = call
		if err := validateEntry(prog, &e); err != nil {
			return nil, fmt.Errorf("drmt: entries line %d: %v", lineNo, err)
		}
		if err := checkKey(prog, &e); err != nil {
			return nil, fmt.Errorf("drmt: entries line %d: %v", lineNo, err)
		}
		set.Add(e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// ParseEntriesString is ParseEntries over a string.
func ParseEntriesString(s string, prog *p4.Program) (*EntrySet, error) {
	return ParseEntries(strings.NewReader(s), prog)
}

func parseActionCall(s string) (p4.ActionCall, error) {
	var call p4.ActionCall
	open := strings.Index(s, "(")
	if open < 0 {
		call.Name = s
		return call, nil
	}
	if !strings.HasSuffix(s, ")") {
		return call, fmt.Errorf("malformed action call %q", s)
	}
	call.Name = s[:open]
	inner := s[open+1 : len(s)-1]
	if inner == "" {
		return call, nil
	}
	for _, part := range strings.Split(inner, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 0, 64)
		if err != nil {
			return call, fmt.Errorf("bad action argument %q", part)
		}
		call.Args = append(call.Args, v)
	}
	return call, nil
}

func validateEntry(prog *p4.Program, e *Entry) error {
	t := prog.Table(e.Table)
	if t == nil {
		return fmt.Errorf("unknown table %q", e.Table)
	}
	found := false
	for _, m := range t.Reads {
		if m.Field == e.Field {
			if m.Kind != e.Kind {
				return fmt.Errorf("table %q matches %q with %s, entry uses %s", e.Table, e.Field, m.Kind, e.Kind)
			}
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("table %q does not match on field %q", e.Table, e.Field)
	}
	listed := false
	for _, a := range t.Actions {
		if a == e.Action.Name {
			listed = true
			break
		}
	}
	if !listed {
		return fmt.Errorf("table %q does not list action %q", e.Table, e.Action.Name)
	}
	act := prog.Action(e.Action.Name)
	if act == nil {
		return fmt.Errorf("unknown action %q", e.Action.Name)
	}
	if len(e.Action.Args) != len(act.Params) {
		return fmt.Errorf("action %q takes %d argument(s), entry provides %d", e.Action.Name, len(act.Params), len(e.Action.Args))
	}
	return nil
}

// checkKey refuses a key or mask outside [0, 2^width) of the matched field:
// no packet field ever holds such a key, so the entry could never match.
func checkKey(prog *p4.Program, e *Entry) error {
	bits, err := prog.FieldBits(e.Field)
	if err != nil {
		return err
	}
	limit := int64(1) << bits
	what, vals := []string{"key"}, []int64{e.Key}
	if e.Kind == p4.MatchTernary {
		what, vals = append(what, "mask"), append(vals, e.Mask)
	}
	for i, v := range vals {
		if v < 0 || v >= limit {
			return fmt.Errorf("%s %d lies outside the %d-bit field %q", what[i], v, bits, e.Field)
		}
	}
	return nil
}
