module scipp/benchmark

go 1.22

require scipp v0.0.0

replace scipp => ../
