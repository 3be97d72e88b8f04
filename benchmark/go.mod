module horse/benchmark

go 1.22

require horse v0.0.0

replace horse => ../
