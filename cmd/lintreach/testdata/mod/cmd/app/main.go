package main

import (
	"fmt"

	"fix/lib"
)

func main() {
	var s lib.Speaker = lib.Dog{}
	b := &lib.Box[struct{ A, B int }]{}
	fmt.Println(lib.Reached(), lib.Generic(struct{ X []int }{}), b.Get(), lib.WithClosure()(), s.Speak())
}
