package lint

import (
	"os"
	"strings"
)

// Assembly leaves. A function declared in Go without a body is
// implemented in the package's .s files, where the call graph cannot
// follow it. It still cannot allocate when its TEXT symbol is a
// leaf: allocating means calling into the runtime, so a body with no
// call and no jump out of itself allocates nothing. asmLeaves proves
// that from the source, conservatively:
//
//   - the TEXT flags name NOSPLIT, so no stack-growth call is
//     inserted either;
//   - no statement is a CALL (or BL/BLR) or raw encoded bytes
//     (BYTE/WORD/LONG/QUAD), which could hide one;
//   - every jump (J*, B, BR) targets a label of the same body, so a
//     tail call to a (SB) symbol or a jump through a register fails
//     the proof;
//   - no #define of the file does either of the above, since a macro
//     expands into whichever body uses it, and the file includes no
//     header but the toolchain's constant-only ones.
//
// Reading a global (CMPB ·useAVX(SB), $0) is data, not a branch, and
// does not disqualify a leaf.

// safeAsmHeaders are the toolchain headers that define constants only.
var safeAsmHeaders = map[string]bool{"textflag.h": true, "funcdata.h": true, "go_asm.h": true}

// asmLeaves returns the names of the TEXT symbols in files that are
// provably alloc-free leaves. An unreadable file proves nothing.
func asmLeaves(files []string) map[string]bool {
	leaves := map[string]bool{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		scanAsm(string(data), leaves)
	}
	return leaves
}

// asmText is one TEXT body being scanned.
type asmText struct {
	name    string
	leaf    bool // NOSPLIT, and nothing so far leaves the body
	labels  map[string]bool
	targets []string
}

// scanAsm adds the leaf TEXT symbols of one assembly file to leaves.
func scanAsm(src string, leaves map[string]bool) {
	src = strings.ReplaceAll(stripAsmComments(src), "\\\n", " ")
	var texts []*asmText
	var cur *asmText
	poisoned := false // a macro of this file calls or jumps out
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "#define"); ok {
				// Macro bodies have no labels of their own: any jump
				// in one is taken to leave.
				for _, stmt := range strings.Split(rest, ";") {
					if out, _ := classifyAsm(stmt); out {
						poisoned = true
					}
				}
			}
			if inc, ok := strings.CutPrefix(line, "#include"); ok && !safeAsmHeaders[strings.Trim(strings.TrimSpace(inc), `"<>`)] {
				poisoned = true // its macros are not scanned
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "TEXT"); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			cur = parseText(rest)
			texts = append(texts, cur)
			continue
		}
		if cur == nil {
			continue
		}
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if i := strings.Index(stmt, ":"); i > 0 && isAsmIdent(stmt[:i]) {
				cur.labels[stmt[:i]] = true
				stmt = strings.TrimSpace(stmt[i+1:])
			}
			out, target := classifyAsm(stmt)
			switch {
			case target != "":
				cur.targets = append(cur.targets, target)
			case out:
				cur.leaf = false
			}
		}
	}
	if poisoned {
		return
	}
	for _, t := range texts {
		for _, target := range t.targets {
			if !t.labels[target] {
				t.leaf = false
			}
		}
		if t.leaf && t.name != "" {
			leaves[t.name] = true
		}
	}
}

// parseText reads the operands of a TEXT directive: the symbol, and
// whether the flags name NOSPLIT.
func parseText(operands string) *asmText {
	t := &asmText{labels: map[string]bool{}}
	fields := strings.Split(operands, ",")
	sym := strings.TrimSpace(fields[0])
	if i := strings.LastIndex(sym, "·"); i >= 0 {
		sym = sym[i+len("·"):]
	}
	t.name, _ = strings.CutSuffix(sym, "(SB)")
	if len(fields) == 3 { // symbol, flags, frame
		for _, f := range strings.Split(fields[1], "|") {
			if strings.TrimSpace(f) == "NOSPLIT" {
				t.leaf = true
			}
		}
	}
	return t
}

// classifyAsm classifies one statement. out reports a statement that
// may leave the body: a call, raw bytes, or a jump. For a jump whose
// operand could be a label, target names it; the caller decides
// against the body's labels.
func classifyAsm(stmt string) (out bool, target string) {
	f := strings.Fields(stmt)
	if len(f) == 0 {
		return false, ""
	}
	switch op := f[0]; {
	case op == "CALL" || op == "BL" || op == "BLR" ||
		op == "BYTE" || op == "WORD" || op == "LONG" || op == "QUAD":
		return true, ""
	case strings.HasPrefix(op, "J") || op == "B" || op == "BR":
		if len(f) == 2 && isAsmIdent(f[1]) {
			return true, f[1]
		}
		return true, ""
	}
	return false, ""
}

// isAsmIdent reports whether s can be a label: a plain identifier.
func isAsmIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z')
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// stripAsmComments removes // line comments and /* */ block comments,
// keeping the newlines so statements stay one per line.
func stripAsmComments(src string) string {
	var b strings.Builder
	for i := 0; i < len(src); i++ {
		switch {
		case strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
			if i < len(src) {
				b.WriteByte('\n')
			}
		case strings.HasPrefix(src[i:], "/*"):
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return b.String()
			}
			b.WriteString(strings.Repeat("\n", strings.Count(src[i:i+2+end], "\n")))
			i += end + 3
		default:
			b.WriteByte(src[i])
		}
	}
	return b.String()
}
