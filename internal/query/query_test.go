package query

import (
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

func subject() *Subject {
	return &Subject{
		Name:  "EchoService",
		Group: "grid",
		Peer:  "peer-1",
		Attrs: map[string]string{
			"kind":    "echo",
			"version": "2",
			"price":   "0.35",
		},
	}
}

// expressions are the valid sources the tests evaluate against subject().
var expressions = []struct {
	src  string
	want bool
}{
	{`name = 'EchoService'`, true},
	{`name = 'Other'`, false},
	{`name != 'Other'`, true},
	{`name like 'Echo*'`, true},
	{`name like '*Service'`, true},
	{`name like '*cho*'`, true},
	{`name like 'Z*'`, false},
	{`name contains 'hoSer'`, true},
	{`name contains 'xyz'`, false},
	{`group = 'grid'`, true},
	{`peer = 'peer-1'`, true},
	{`attr(kind) = 'echo'`, true},
	{`attr(kind) = 'file'`, false},
	{`attr(kind) != 'file'`, true},
	{`attr(missing) = 'x'`, false},
	{`attr(missing) != 'x'`, true}, // absent attr is not-equal
	{`attr(kind) exists`, true},
	{`attr(missing) exists`, false},
	{`attr(price) < 0.5`, true},
	{`attr(price) > 0.5`, false},
	{`attr(price) >= 0.35`, true},
	{`attr(price) <= 0.35`, true},
	{`attr(version) > 1`, true},
	{`attr(kind) > 1`, false}, // non-numeric comparison fails closed
	{`name = 'EchoService' and attr(kind) = 'echo'`, true},
	{`name = 'EchoService' and attr(kind) = 'file'`, false},
	{`name = 'Other' or attr(kind) = 'echo'`, true},
	{`not name = 'Other'`, true},
	{`not (name = 'EchoService' or group = 'grid')`, false},
	{`name like 'Echo*' and (attr(price) < 0.5 or attr(version) = '9')`, true},
	{`NAME = 'EchoService' AND attr(kind) = 'echo'`, true}, // case-insensitive keywords
	{`attr("kind") = "echo"`, true},                        // double quotes
}

func TestExpressions(t *testing.T) {
	for _, c := range expressions {
		e, err := Compile(c.src)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.src, err)
			continue
		}
		if got := e.Matches(subject()); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
		if e.Source() != c.src {
			t.Errorf("Source() = %q", e.Source())
		}
	}
}

func TestPrecedence(t *testing.T) {
	// and binds tighter than or: a or b and c == a or (b and c).
	e := MustCompile(`name = 'Other' or group = 'grid' and attr(kind) = 'echo'`)
	if !e.Matches(subject()) {
		t.Fatal("precedence: want (grid and echo) to satisfy")
	}
	e = MustCompile(`name = 'EchoService' or group = 'x' and attr(kind) = 'y'`)
	if !e.Matches(subject()) {
		t.Fatal("precedence: left or-arm should satisfy alone")
	}
}

// badSources are sources Compile refuses.
var badSources = []string{
	``,
	`name`,
	`name =`,
	`= 'x'`,
	`bogusfield = 'x'`,
	`attr = 'x'`,
	`attr( = 'x'`,
	`attr(k = 'x'`,
	`name = 'unterminated`,
	`(name = 'x'`,
	`name = 'x' extra`,
	`name ~ 'x'`,
	`name = 'x' and`,
	`not`,
	`name @@ 'x'`,
}

func TestCompileErrors(t *testing.T) {
	for _, src := range badSources {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

// TestCompileRefusesDeepSources: a source nested 100,000 deep — in
// parentheses, or in a chain of not, valid but for its length — is refused
// before it is parsed. Parsed, under a 16 MiB stack limit, the parentheses
// overflow the stack, which kills the process past any recover; a query
// frame up to 16 MB could carry 5 M levels, enough for the default 1 GB.
func TestCompileRefusesDeepSources(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	for name, src := range map[string]string{
		"parentheses": strings.Repeat("(", 100_000),
		"not chain":   strings.Repeat("not ", 100_000) + "name = 'x'",
	} {
		if _, err := Compile(src); err == nil || !strings.Contains(err.Error(), "4096-byte limit") {
			t.Errorf("%s: Compile of %d bytes: %v, want the limit named", name, len(src), err)
		}
	}
}

// FuzzCompile: no source panics the compiler or what it compiles, a source
// it accepts is its expression's Source, and a source over the limit is
// refused.
func FuzzCompile(f *testing.F) {
	for _, c := range expressions {
		f.Add(c.src)
	}
	for _, src := range badSources {
		f.Add(src)
	}
	f.Add(strings.Repeat("(", maxSource+1))
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Compile(src)
		if err != nil {
			return
		}
		if len(src) > maxSource {
			t.Fatalf("accepted %d bytes, over the %d-byte limit", len(src), maxSource)
		}
		if e.Source() != src {
			t.Fatalf("Source() = %q, compiled from %q", e.Source(), src)
		}
		e.Matches(subject())
		e.Matches(&Subject{})
	})
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile(`=`)
}

func TestNilAttrs(t *testing.T) {
	s := &Subject{Name: "X"}
	if MustCompile(`attr(a) exists`).Matches(s) {
		t.Fatal("exists on nil attrs")
	}
	if !MustCompile(`attr(a) != 'v'`).Matches(s) {
		t.Fatal("!= on nil attrs")
	}
	if !MustCompile(`name = 'X'`).Matches(s) {
		t.Fatal("name on nil attrs")
	}
}

func TestQuickWildcardConsistency(t *testing.T) {
	// Property: `name like '*frag*'` agrees with strings.Contains.
	f := func(frag, name string) bool {
		if strings.ContainsAny(frag, "*'\"\\") || strings.ContainsAny(name, "'\"\\") {
			return true
		}
		e, err := Compile(`name like '*` + frag + `*'`)
		if err != nil {
			return true // frag produced an unparsable literal; fine
		}
		return e.Matches(&Subject{Name: name}) == strings.Contains(name, frag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNeverPanics(t *testing.T) {
	// Property: arbitrary input never panics the compiler.
	f := func(src string) bool {
		_, _ = Compile(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
