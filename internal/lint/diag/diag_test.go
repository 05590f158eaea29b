package diag

import "testing"

func TestStringWithoutFile(t *testing.T) {
	d := Diag{Line: 3, Col: 7, Rule: "loc/parse", Msg: "unexpected ';'"}
	if got, want := d.String(), "3:7: [loc/parse] unexpected ';'"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	ds := InFile("f.loc", []Diag{d})
	if got, want := ds[0].String(), "f.loc:3:7: [loc/parse] unexpected ';'"; got != want {
		t.Errorf("after InFile, String() = %q, want %q", got, want)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"cycle", "cycle", 0},
		{"cycl", "cycle", 1},
		{"cylce", "cycle", 2},
		{"watts", "cycle", 5},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.d {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestSuggest(t *testing.T) {
	known := []string{"cycle", "time", "Energy"}
	for _, c := range []struct{ name, want string }{
		{"cycel", "cycle"},    // transposition: distance 2
		{"CYCLE", "cycle"},    // case-folded
		{"energie", "Energy"}, // the known spelling is returned
		{"tme", "time"},
		{"watts", ""}, // too far from everything
		{"", ""},
	} {
		if got := Suggest(c.name, known); got != c.want {
			t.Errorf("Suggest(%q) = %q, want %q", c.name, got, c.want)
		}
	}
	// Ties go to the earliest known name.
	if got := Suggest("ab", []string{"ax", "ay"}); got != "ax" {
		t.Errorf("tie broken to %q, want ax", got)
	}
}
