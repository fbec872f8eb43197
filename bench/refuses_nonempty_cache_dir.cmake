# micro_cache handed a --cache-dir that already holds files (a real
# campaign store, say) must refuse it: exit 2 with its diagnostic, before
# any work, and leave every file there in place.
#
#   cmake -DBENCH=<path to micro_cache> -DDIR=<temp dir> \
#         -P refuses_nonempty_cache_dir.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(WRITE "${DIR}/sentinel" "not micro_cache's to delete\n")
execute_process(
  COMMAND "${BENCH}" --json "${DIR}/report.json" --cache-dir "${DIR}"
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT EXISTS "${DIR}/sentinel")
  message(FATAL_ERROR "micro_cache deleted ${DIR}/sentinel")
endif()
if(NOT code EQUAL 2)
  message(FATAL_ERROR "micro_cache exited '${code}', want 2")
endif()
if(NOT err MATCHES "micro_cache: --cache-dir .* exists and is not empty")
  message(FATAL_ERROR "unexpected diagnostic: ${err}")
endif()
if(EXISTS "${DIR}/report.json")
  message(FATAL_ERROR "micro_cache ran its sweep before refusing")
endif()
file(REMOVE_RECURSE "${DIR}")
