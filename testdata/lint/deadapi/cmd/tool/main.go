// Command tool is the one user of package dead.
package main

import (
	"fmt"

	"deadfixture/internal/dead"
)

func main() { fmt.Println(dead.Used()) }
