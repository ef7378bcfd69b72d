module btr/benchmark

go 1.21

require btr v0.0.0

replace btr => ../
