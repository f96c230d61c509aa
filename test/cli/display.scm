(display 1) (display 2) (newline)
(display "three")
(newline)
