# Regenerate one --quick figure and gate it against its committed
# goldens: the figure CSV byte for byte, and the FSB stream digest
# through `cosim_replay check-golden`.
#
#   cmake -DBENCH=<fig binary> -DREPLAY=<cosim_replay> -DFIG=<name>
#         -DGOLDEN_DIR=<tests/golden> -DOUT=<scratch dir>
#         [-DCSV_ONLY=ON] -P check_figure.cmake
#
# <name> is the CSV's base name (<name>.csv). CSV_ONLY skips the digest,
# for binaries that write none (fig8_prefetch, table2_characteristics).
#
# A deliberate change of results regenerates the goldens with
#   <fig> --quick --out=<dir> --digest=tests/golden/<fig>.quick.digest
#   cp <dir>/<fig>.csv tests/golden/<fig>.quick.csv

file(REMOVE_RECURSE ${OUT})
set(digest_arg --digest=${OUT}/${FIG}.digest)
if(CSV_ONLY)
    set(digest_arg)
endif()
execute_process(
    COMMAND ${BENCH} --quick --out=${OUT} ${digest_arg}
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${FIG} --quick exited with ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${GOLDEN_DIR}/${FIG}.quick.csv ${OUT}/${FIG}.csv
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    file(READ ${OUT}/${FIG}.csv fresh)
    message(FATAL_ERROR
        "${FIG}.csv differs from ${GOLDEN_DIR}/${FIG}.quick.csv; "
        "fresh result:\n${fresh}")
endif()

if(CSV_ONLY)
    return()
endif()
execute_process(
    COMMAND ${REPLAY} check-golden ${GOLDEN_DIR}/${FIG}.quick.digest
            ${OUT}/${FIG}.digest
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${FIG} stream digests differ from the golden")
endif()
