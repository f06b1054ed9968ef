// Command reach is the lister behind scripts/reach.sh. It reads `go tool nm`
// output of every binary the repository builds on standard input, parses
// every function and method declared in a non-test file under internal/ and
// kron/, and fails when one is linked into no binary and the allowlist does
// not name it:
//
//	go -C tools run ./cmd/reach ROOT ALLOWLIST < nm-output
//
// ROOT is the repository root and ALLOWLIST a file relative to it. Each
// allowlist line is `<pkg>.<[Recv.]Name> <test dir> <TestName>`: an unreached
// function that a test needs as an oracle, and the test that needs it. Blank
// lines and lines starting with # are ignored. The lister also fails on a
// stale entry: one that is now reached, no longer declared, listed twice, or
// whose test or fuzz function the named directory does not declare.
//
// Keys name a package by its import path without the leading "repro/" and
// "internal/", so repro/internal/sparse's (*CSR).At is sparse.CSR.At.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const module = "repro"

// scanned are the directories, relative to the root, whose functions must be
// reached; mains live elsewhere.
var scanned = []string{"internal", "kron"}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: reach ROOT ALLOWLIST < nm-output")
		os.Exit(2)
	}
	problems, err := run(os.Args[1], os.Args[2], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		os.Exit(1)
	}
}

// decl is one function or method declaration.
type decl struct {
	pos   token.Position // file relative to the root
	lines int
}

// entry is one allowlist line.
type entry struct {
	line          int
	key, dir, fun string
}

// run checks the declarations under root against the symbols in nm and the
// allowlist, prints a summary to out, and returns one message per problem.
func run(root, allowFile string, nm io.Reader, out io.Writer) ([]string, error) {
	reached, err := readSymbols(nm)
	if err != nil {
		return nil, err
	}
	if len(reached) == 0 {
		return nil, fmt.Errorf("no %s/ text symbols on standard input", module)
	}
	decls, err := declarations(root)
	if err != nil {
		return nil, err
	}
	entries, problems, err := readAllowlist(root, allowFile)
	if err != nil {
		return nil, err
	}

	allowed := make(map[string]bool, len(entries))
	allowedLines := 0
	for _, e := range entries {
		where := fmt.Sprintf("%s:%d: %s", allowFile, e.line, e.key)
		d, declared := decls[e.key]
		switch {
		case allowed[e.key]:
			problems = append(problems, where+" is listed twice")
		case !declared:
			problems = append(problems, where+" is not declared in a non-test file")
		case reached[e.key]:
			problems = append(problems, where+" is linked into a binary; remove the entry")
		default:
			allowedLines += d.lines
		}
		allowed[e.key] = true
		ok, err := hasTest(filepath.Join(root, e.dir), e.fun)
		if err != nil {
			return nil, err
		}
		if !ok {
			problems = append(problems, fmt.Sprintf("%s names %s, which %s does not declare in a _test.go file", where, e.fun, e.dir))
		}
	}

	keys := make([]string, 0, len(decls))
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	unreached := 0
	for _, k := range keys {
		if reached[k] {
			continue
		}
		unreached++
		if !allowed[k] {
			d := decls[k]
			problems = append(problems, fmt.Sprintf("%s:%d: %s (%d lines) is linked into no binary and %s does not list it",
				d.pos.Filename, d.pos.Line, k, d.lines, allowFile))
		}
	}
	fmt.Fprintf(out, "reach: %d functions declared, %d linked, %d unreached, %d allowlisted (%d lines)\n",
		len(decls), len(decls)-unreached, unreached, len(entries), allowedLines)
	return problems, nil
}

// readSymbols returns the key of every module text symbol in nm's output.
func readSymbols(nm io.Reader) (map[string]bool, error) {
	keys := make(map[string]bool)
	sc := bufio.NewScanner(nm)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if k, ok := nmKey(sc.Text()); ok {
			keys[k] = true
		}
	}
	return keys, sc.Err()
}

// nmKey maps one line of `go tool nm` output ("addr type name") to the key of
// the declared function whose code the symbol holds. It reports false for
// anything but a text symbol (T or t) of this module. The name is the rest of
// the line after the type, since a generic shape in it may contain spaces.
// The binaries must be built with inlining off: a closure inlined into
// another function is named after that function first.
func nmKey(line string) (string, bool) {
	_, rest, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
	typ, name, _ := strings.Cut(rest, " ")
	if typ != "T" && typ != "t" || !strings.HasPrefix(name, module+"/") {
		return "", false
	}
	// Import paths here hold no dots, so the first one ends the path.
	path, sym, ok := strings.Cut(name, ".")
	if !ok {
		return "", false
	}
	sym = stripBrackets(sym)
	var recv string
	if strings.HasPrefix(sym, "(") {
		r, after, ok := strings.Cut(sym[1:], ")")
		if !ok {
			return "", false
		}
		recv, sym = strings.TrimPrefix(r, "*"), strings.TrimPrefix(after, ".")
	}
	parts := strings.Split(sym, ".")
	if recv == "" && len(parts) > 1 && !isClosure(parts[1]) {
		recv, parts = parts[0], parts[1:]
	}
	fn, _, _ := strings.Cut(parts[0], "-") // method values (-fm), range bodies (-range1)
	if recv != "" {
		fn = recv + "." + fn
	}
	return pkgKey(path) + "." + fn, true
}

// isClosure reports whether a symbol component after a function's name names
// code the compiler generated inside it: a closure (func1), a go or defer
// wrapper (gowrap1, deferwrap1), or the index of one of several init funcs.
func isClosure(s string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		if rest, ok := strings.CutPrefix(s, p); ok && rest != "" && strings.Trim(rest, "0123456789") == "" {
			return true
		}
	}
	return s != "" && strings.Trim(s, "0123456789") == ""
}

// stripBrackets removes every bracketed type-argument list, nested brackets
// and quoted struct tags included.
func stripBrackets(s string) string {
	var b strings.Builder
	depth, quoted := 0, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quoted:
			if c == '\\' {
				i++
			} else if c == '"' {
				quoted = false
			}
			continue
		case c == '"' && depth > 0:
			quoted = true
			continue
		case c == '[':
			depth++
			continue
		case c == ']' && depth > 0:
			depth--
			continue
		}
		if depth == 0 {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// pkgKey drops the module and internal/ prefixes from an import path.
func pkgKey(path string) string {
	path = strings.TrimPrefix(path, module+"/")
	return strings.TrimPrefix(path, "internal/")
}

// declarations parses every non-test Go file under the scanned directories
// and returns each function's key with its position and line count.
func declarations(root string) (map[string]decl, error) {
	decls := make(map[string]decl)
	fset := token.NewFileSet()
	for _, top := range scanned {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := pkgKey(module + "/" + filepath.ToSlash(filepath.Dir(rel)))
			for _, x := range f.Decls {
				fd, ok := x.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				pos := fset.Position(fd.Pos())
				pos.Filename = filepath.ToSlash(rel)
				decls[key] = decl{pos: pos, lines: fset.Position(fd.End()).Line - pos.Line + 1}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return decls, nil
}

// recvName returns a receiver's type name without pointer or type parameters.
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// readAllowlist parses the allowlist; malformed lines come back as problems.
func readAllowlist(root, allowFile string) ([]entry, []string, error) {
	data, err := os.ReadFile(filepath.Join(root, allowFile))
	if err != nil {
		return nil, nil, err
	}
	var entries []entry
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			problems = append(problems, fmt.Sprintf("%s:%d: want `<pkg>.<[Recv.]Name> <test dir> <TestName>`, got %q", allowFile, i+1, line))
			continue
		}
		entries = append(entries, entry{line: i + 1, key: f[0], dir: f[1], fun: f[2]})
	}
	return entries, problems, nil
}

// hasTest reports whether a _test.go file in dir declares the test or fuzz
// function name.
func hasTest(dir, name string) (bool, error) {
	if !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Fuzz") {
		return false, nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return false, err
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return false, err
		}
		for _, x := range f.Decls {
			if fd, ok := x.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true, nil
			}
		}
	}
	return false, nil
}
