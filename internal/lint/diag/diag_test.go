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
