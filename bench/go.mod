module stfw/bench

go 1.22

require stfw v0.0.0

replace stfw => ../
