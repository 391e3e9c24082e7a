module censysmap/bench

go 1.24

require censysmap v0.0.0

replace censysmap => ../
