module clash/benchmark

go 1.24

require clash v0.0.0

replace clash => ../
