package main

import "fix/lib"

func main() { println(lib.BenchOnly()) }
