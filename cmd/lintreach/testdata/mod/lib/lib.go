// Package lib holds one function for each case the lint classifies.
package lib

func Reached() int   { return 1 }
func Unreached() int { return 2 } // the one function nothing links

func Generic[T any](v T) T { return v } // reached through an instantiation

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T      { return b.v } // reached through Box[struct{...}]
func WithClosure() func() int { return func() int { return viaClosure() } }
func viaClosure() int         { return 3 } // reached only from the closure

type Speaker interface{ Speak() string }
type Dog struct{}

func (Dog) Speak() string { return "woof" } // called only through Speaker

func BenchOnly() int     { return 4 }               // linked only by bench/
func ViaAPI() int        { return 5 }               // reached only through the root package's API
func Checker() int       { return checkerHelper() } // allowlisted
func checkerHelper() int { return 6 }               // reached only through Checker
