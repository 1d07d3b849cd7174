package ccs_test

import (
	"reflect"
	"strings"
	"testing"

	"ccs"
)

// FuzzDecodeRequests: the request decoder never panics on arbitrary
// bytes, decides as the five-pass decoder it replaced (refDecodeRequests)
// does — the same accept/reject decision and equal requests — and every
// document it accepts survives the encode/decode round trip.
func FuzzDecodeRequests(f *testing.F) {
	for _, seed := range []string{
		`{"relation":"weak","p":"expr:a","q":"expr:a"}`,
		`[{"relation":"weak","p":"expr:a","q":"expr:a","label":"pair"}]`,
		`{"schema":1,"requests":[{"relation":"strong","p":"expr:a+a","q":"expr:a","k":2,"route":"mtc"}]}`,
		`{"relation":"weak","network":{"name":"n","components":[{"process":"expr:a","relabel":{"a":"b"}}],"hide":["b"],"spec":"expr:0"}}`,
		`{"relation":"weak","network":{"name":"q","components":[{"process":"expr:aa","count":3}],"sync":[{"parts":["a","a"],"result":"go"}],"hide":["a"],"spec":"expr:c"}}`,
		`{"relation":"weak","network":{"components":[{"process":"expr:a","count":-1}],"sync":[{"parts":["x"]}]}}`,
		`{"schema":99,"requests":[]}`,
		`{"relatoin":"weak"}`,
		`weak expr:a expr:a`,
		`{`, `[]`, `null`, `42`, `"x"`,
		strings.Repeat("[", 200) + strings.Repeat("]", 200),
		`{"requests":null}`,
		`{"Requests":[]}`,
		`{"requ\u0065sts":[]}`,
		`{"relation":"weak","network":{"components":[{"process":"expr:a","relabel":{"a":"b","requests":"c"}}],"spec":"expr:a"}}`,
		`{"label":"requests","relation":"weak","p":"expr:a","q":"expr:a"}`,
		` {"schema":1,"requests":[]} {"requests":[]}`,
		`{"label":"x\",\"requests","relation":"weak","p":"expr:a","q":"expr:a"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ccs.DecodeRequests(data)
		want, refErr := refDecodeRequests(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeRequests(%q): error %v, reference error %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(reqs, want) {
			t.Fatalf("DecodeRequests(%q) = %#v, reference %#v", data, reqs, want)
		}
		out, err := ccs.EncodeRequests(reqs)
		if err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		if _, err := ccs.DecodeRequests(out); err != nil {
			t.Fatalf("re-encoded document does not decode: %v\n%s", err, out)
		}
	})
}

// FuzzParseNetworkDescription: the line-oriented description parser never
// panics, and accepted descriptions carry at least one component.
func FuzzParseNetworkDescription(f *testing.F) {
	for _, seed := range []string{
		"component procs/a.fsp\ncomponent procs/b.fsp\nhide a\n",
		"name ring\n# comment\ncomponent cell.fsp in=c0 out=c1\ncomponent cell.fsp in=c1 out=c0\nhide c0 c1\nspec spec.fsp\n",
		"component expr:a(b+c)\nspec expr:ab+ac\n",
		"component 3 x cell.fsp in=c0\nsync a a -> go\nhide a\n",
		"component 2 x p.fsp\ncomponent q.fsp\nsync req yes yes\nspec s.fsp\n",
		"component\n", "hide a\n", "spec s.fsp\ncomponent p.fsp\n",
		"name\n", "bogus directive\n", "", "\n\n", "component p.fsp a=\n",
		"component p.fsp =b\n", "component p.fsp a=b=c\n",
		"sync a\n", "component p\nsync a b -> \n", "component p\nsync -> r\n",
		"component 0 x p\n", "component 2 x\n", "component 999999999999999999999 x p\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		nr, _, err := ccs.ParseNetworkDescription(strings.NewReader(src))
		if err != nil {
			return
		}
		if len(nr.Components) == 0 {
			t.Fatalf("accepted description %q has no components", src)
		}
	})
}
