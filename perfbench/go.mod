module capes/perfbench

go 1.23.0

require capes v0.0.0

replace capes => ../
