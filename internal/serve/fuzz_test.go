package serve

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"testing"
)

// FuzzDecodeCursor hammers the untrusted-cursor parser: any input must
// either decode to a well-formed cursor or return one of the typed
// ErrCursor* sentinels — never panic, never return an untyped error. A
// successful decode must survive an encode/decode round trip unchanged.
func FuzzDecodeCursor(f *testing.F) {
	// Well-formed tokens at each boundary, plus every malformation class.
	f.Add(encodeCursor(cursor{V: 1, Q: "services.tls: true", Gen: 8, Off: 0}))
	f.Add(encodeCursor(cursor{V: 1, Q: "q", Gen: 0, Off: 1 << 30}))
	f.Add(encodeCursor(cursor{V: 2, Q: "q", Gen: 1, Off: 0}))  // bad version
	f.Add(encodeCursor(cursor{V: 1, Q: "", Gen: 1, Off: 0}))   // empty query
	f.Add(encodeCursor(cursor{V: 1, Q: "q", Gen: 1, Off: -1})) // negative offset
	f.Add("!!!not base64url!!!")
	f.Add("bm90IGpzb24")                  // base64("not json")
	f.Add("e30")                          // base64("{}") — zero version
	f.Add("eyJ2IjoxLCJxIjoicSJ9e30")      // trailing data after the object
	f.Add("eyJ2IjoxLCJxIjoicSIsIlgiOjF9") // unknown field
	f.Add("")
	f.Add("A")

	f.Fuzz(func(t *testing.T, token string) {
		c, err := decodeCursor(token)
		if err != nil {
			if !errors.Is(err, ErrCursorEncoding) && !errors.Is(err, ErrCursorSyntax) &&
				!errors.Is(err, ErrCursorVersion) && !errors.Is(err, ErrCursorField) {
				t.Fatalf("untyped error %v for token %q", err, token)
			}
			return
		}
		if c.V != cursorVersion || c.Off < 0 || c.Q == "" {
			t.Fatalf("decode accepted out-of-range cursor %+v from %q", c, token)
		}
		c2, err := decodeCursor(encodeCursor(c))
		if err != nil {
			t.Fatalf("round trip of %+v failed: %v", c, err)
		}
		if c2 != c {
			t.Fatalf("round trip changed cursor: %+v -> %+v", c, c2)
		}
	})
}

// FuzzExportCursor drives the paginated export handler with any cursor token
// and any per_page: it never panics, answers only 200, 400 or 410, and a 200
// is one valid JSON document. The seeds include cursors the server would
// accept — its own query and generation — with offsets up to MaxInt.
func FuzzExportCursor(f *testing.F) {
	fx := newFixture(f, Config{})
	gen := fx.ix.Generation()
	for _, off := range []int{0, 3, 8, 9, math.MaxInt - 2, math.MaxInt} {
		for _, per := range []string{"1", "3", "1000"} {
			f.Add(encodeCursor(cursor{V: cursorVersion, Q: "services.tls: true", Gen: gen, Off: off}), per)
		}
	}
	f.Add(encodeCursor(cursor{V: cursorVersion, Q: "services.tls: true", Gen: gen + 1, Off: 0}), "3") // expired
	f.Add(encodeCursor(cursor{V: cursorVersion, Q: "(((", Gen: gen, Off: 0}), "3")                    // bad query
	// A token hand-built around a query that is not valid UTF-8: the JSON
	// decoder reads U+FFFD for the bad byte, so it names no pin the server made.
	f.Add(base64.RawURLEncoding.EncodeToString(
		fmt.Appendf(nil, "{\"v\":%d,\"q\":\"services.banner: \\\"\xff\\\"\",\"gen\":%d,\"off\":0}", cursorVersion, gen)), "3")
	for _, per := range []string{"", "0", "-1", "1001", "abc", "99999999999999999999"} {
		f.Add(encodeCursor(cursor{V: cursorVersion, Q: "services.tls: true", Gen: gen, Off: 3}), per)
	}
	f.Add("!!!not base64url!!!", "3")
	f.Add("", "")

	f.Fuzz(func(t *testing.T, token, per string) {
		rec := fx.get("/v2/export/hosts?cursor="+url.QueryEscape(token)+"&per_page="+url.QueryEscape(per), "k-int")
		switch rec.Code {
		case 200:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("200 with an invalid JSON body for token %q per_page %q: %s", token, per, rec.Body)
			}
		case 400, 410:
		default:
			t.Fatalf("status %d for token %q per_page %q: %s", rec.Code, token, per, rec.Body)
		}
	})
}
