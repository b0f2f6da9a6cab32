# End-to-end test of the offline investigator CLI, run as a ctest entry via
# `cmake -P` with:
#   -DINVESTIGATOR=<examples/investigator>  -DADLP_AUDIT=<tools/adlp_audit>
#   -DWORKDIR=<scratch directory>
#
# examples/investigator runs the self-driving app with a planner that
# falsifies its logged plans, and exports incident.adlplog and
# system.manifest. adlp_audit then audits that evidence three ways: with
# one thread, with four threads, and as a streaming replay sealing every 7
# entries. Each run must exit 1 (the planner is
# blamed) and all three must print byte-identical JSON.

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${INVESTIGATOR}" "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "investigator failed (rc=${rc}):\n${err}")
endif()

function(run_audit out_var)
  execute_process(
    COMMAND "${ADLP_AUDIT}" "${WORKDIR}/incident.adlplog"
      "${WORKDIR}/system.manifest" --json --verdicts ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR
      "adlp_audit ${ARGN}: exit ${rc}, expected 1 (planner blamed):\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_audit(one_thread --threads 1)
run_audit(four_threads --threads 4)
run_audit(streaming --streaming --epoch 7)
if(NOT one_thread MATCHES "\"planner\"")
  message(FATAL_ERROR "the report does not name the planner:\n${one_thread}")
endif()
if(NOT four_threads STREQUAL one_thread)
  message(FATAL_ERROR "--threads 4 output differs from --threads 1")
endif()
if(NOT streaming STREQUAL one_thread)
  message(FATAL_ERROR "--streaming --epoch 7 output differs from --threads 1")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
