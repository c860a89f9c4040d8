#!/bin/sh
# Identity separator for the eval workload: the estimate is the mixture.
# Usage: sh perfbench/ext_identity.sh MIXTURE_WAV CAPTION OUT_WAV
exec cp -- "$1" "$3"
