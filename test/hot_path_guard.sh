#!/bin/sh
# Usage: hot_path_guard.sh OBJECT.o...
#
# Fails when an object file of the simulator's per-instruction path calls
# OCaml's polymorphic comparison primitives or Stdlib.min/max. An
# unannotated scan helper or a [min]/[max] on ints compiles to one of these
# C calls instead of an int compare; see DESIGN.md, "Hot-path rules".
status=0
for obj in "$@"; do
  hits=$(nm -u "$obj" | awk '{ print $NF }' |
    grep -xE 'caml_(equal|notequal|compare|lessequal|lessthan|greaterequal|greaterthan)|camlStdlib\.(min|max)_[0-9]+')
  if [ -n "$hits" ]; then
    echo "$obj: polymorphic compare on the hot path:" $hits
    status=1
  fi
done
exit $status
