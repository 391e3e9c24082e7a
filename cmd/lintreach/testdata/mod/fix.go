// Package fix is the fixture's root package; API is its exported facade.
package fix

import "fix/lib"

func API() int { return lib.ViaAPI() }
