# Output pin: run a program and compare its stdout with a golden file,
# byte for byte. On a mismatch the actual output is written next to
# the build tree for diffing; the golden is read in place, never
# copied or edited.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file written on
#         mismatch> -P output_pin.cmake
execute_process(COMMAND ${PROGRAM}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
    file(WRITE ${ACTUAL} "${out}")
    message(FATAL_ERROR
        "output differs from ${GOLDEN}; see: diff ${GOLDEN} ${ACTUAL}")
endif()
