# End-to-end crash/chaos contract for `lopass_cli explore`, on the real
# binary:
#
#   MODE=kill_resume    arm LOPASS_EXPLORE_KILL_AFTER so the process
#                       SIGKILLs itself after N journal appends, then
#                       resume from the journal and require the resumed
#                       report and journal to be byte-identical to an
#                       uninterrupted run's. With TEAR=1, a partial
#                       record without a newline is appended after the
#                       kill, as a kill mid-append leaves it.
#   MODE=chaos          run under a randomized one-shot fault schedule
#                       (--chaos SEED) and require exit 0 and a report
#                       byte-identical to the clean run's. With JOBS>1,
#                       the stderr must also equal a --jobs 1 chaos
#                       run's byte for byte.
#   MODE=jobs_identity  run the sweep with --jobs 1 and --jobs ${JOBS},
#                       both journaled, and require stdout AND journal
#                       bytes to be identical — the parallel runner's
#                       determinism contract on the real binary.
#   MODE=chaos_fixture  run `--chaos SEED --retries 4` journaled with
#                       --jobs ${JOBS} and require stdout and journal
#                       bytes to equal pinned fixture files.
#   MODE=kill_off       run the sweep journaled under the caller's
#                       LOPASS_EXPLORE_KILL_AFTER and require exit 0
#                       and EXPECT_LINES journal records: the value must
#                       leave the kill switch off.
#
# Arguments (via -D):
#   CLI           path to the lopass_cli binary
#   MODE          kill_resume | chaos | jobs_identity | chaos_fixture | kill_off
#   WORKDIR       scratch directory for journals and captured reports
#   APPS          --apps value for the sweep
#   JOBS          worker count for the non-reference runs (default 1);
#                 the clean reference always runs sequentially, so
#                 kill_resume/chaos with JOBS>1 also prove the parallel
#                 runs match the sequential report byte-for-byte
#   KILL_AFTER    (kill_resume) append count before the self-SIGKILL
#   TEAR          (kill_resume) 1 tears the journal's tail before resuming
#   CHAOS_SEED    (chaos, chaos_fixture) seed for the fault schedule
#   FIXTURE_REPORT, FIXTURE_JOURNAL
#                 (chaos_fixture) expected stdout and journal files
#   EXPECT_LINES  (kill_off) journal records the sweep must write

if(NOT DEFINED CLI OR NOT DEFINED MODE OR NOT DEFINED WORKDIR OR NOT DEFINED APPS)
  message(FATAL_ERROR "explore_check.cmake needs -DCLI, -DMODE, -DWORKDIR, -DAPPS")
endif()
if(NOT DEFINED JOBS)
  set(JOBS 1)
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(ENV{LOPASS_FAULT_INJECT} "")

if(MODE STREQUAL "chaos_fixture")
  if(NOT DEFINED CHAOS_SEED OR NOT DEFINED FIXTURE_REPORT OR NOT DEFINED FIXTURE_JOURNAL)
    message(FATAL_ERROR
      "chaos_fixture mode needs -DCHAOS_SEED, -DFIXTURE_REPORT, -DFIXTURE_JOURNAL")
  endif()
  set(journal "${WORKDIR}/chaos_fixture.jsonl")
  file(REMOVE "${journal}")
  execute_process(
    COMMAND ${CLI} explore --apps ${APPS} --chaos ${CHAOS_SEED} --retries 4
            --journal ${journal} --jobs ${JOBS}
    RESULT_VARIABLE chaos_rc
    OUTPUT_VARIABLE chaos_out
    ERROR_VARIABLE chaos_err
  )
  if(NOT chaos_rc STREQUAL "0")
    message(FATAL_ERROR "chaos explore run failed (rc=${chaos_rc})\n${chaos_err}")
  endif()
  file(READ "${FIXTURE_REPORT}" want_out)
  file(READ "${FIXTURE_JOURNAL}" want_journal)
  file(READ "${journal}" got_journal)
  if(NOT chaos_out STREQUAL want_out)
    message(FATAL_ERROR
      "chaos report differs from ${FIXTURE_REPORT}\n--- got ---\n${chaos_out}")
  endif()
  if(NOT got_journal STREQUAL want_journal)
    message(FATAL_ERROR
      "chaos journal differs from ${FIXTURE_JOURNAL}\n--- got ---\n${got_journal}")
  endif()
  return()
endif()

if(MODE STREQUAL "kill_off")
  set(journal "${WORKDIR}/kill_off.jsonl")
  file(REMOVE "${journal}")
  execute_process(
    COMMAND ${CLI} explore --apps ${APPS} --journal ${journal} --jobs ${JOBS}
    RESULT_VARIABLE off_rc
    OUTPUT_QUIET
    ERROR_VARIABLE off_err
  )
  if(NOT off_rc STREQUAL "0")
    message(FATAL_ERROR "LOPASS_EXPLORE_KILL_AFTER='$ENV{LOPASS_EXPLORE_KILL_AFTER}' "
                        "ended the sweep (rc=${off_rc})\n${off_err}")
  endif()
  file(STRINGS "${journal}" records)
  list(LENGTH records record_count)
  if(NOT record_count EQUAL EXPECT_LINES)
    message(FATAL_ERROR "journal holds ${record_count} records, want ${EXPECT_LINES}")
  endif()
  return()
endif()

# The uninterrupted sequential reference sweep, journaled.
set(clean_journal "${WORKDIR}/clean.jsonl")
file(REMOVE "${clean_journal}")
execute_process(
  COMMAND ${CLI} explore --apps ${APPS} --journal ${clean_journal}
  RESULT_VARIABLE clean_rc
  OUTPUT_VARIABLE clean_out
  ERROR_VARIABLE clean_err
)
if(NOT clean_rc STREQUAL "0")
  message(FATAL_ERROR "clean explore run failed (rc=${clean_rc})\n${clean_err}")
endif()

if(MODE STREQUAL "kill_resume")
  if(NOT DEFINED KILL_AFTER)
    message(FATAL_ERROR "kill_resume mode needs -DKILL_AFTER=N")
  endif()
  set(journal "${WORKDIR}/kill_resume.jsonl")
  file(REMOVE "${journal}")

  # Crash the sweep for real: SIGKILL after N committed records, with
  # ${JOBS} workers in flight.
  set(ENV{LOPASS_EXPLORE_KILL_AFTER} "${KILL_AFTER}")
  execute_process(
    COMMAND ${CLI} explore --apps ${APPS} --journal ${journal} --jobs ${JOBS}
    RESULT_VARIABLE kill_rc
    OUTPUT_VARIABLE kill_out
    ERROR_VARIABLE kill_err
  )
  unset(ENV{LOPASS_EXPLORE_KILL_AFTER})
  if(kill_rc STREQUAL "0")
    message(FATAL_ERROR
      "expected the armed kill switch to terminate the sweep, but it exited 0; "
      "raise KILL_AFTER below the job count")
  endif()
  if(NOT EXISTS "${journal}")
    message(FATAL_ERROR "no journal survived the kill")
  endif()
  file(READ "${clean_journal}" clean_journal_bytes)
  if(TEAR)
    # Append the first 60 bytes of the next record, no newline: the
    # torn line a kill in the middle of an append leaves behind.
    file(READ "${journal}" killed)
    string(LENGTH "${killed}" killed_size)
    string(SUBSTRING "${clean_journal_bytes}" ${killed_size} 60 fragment)
    if(fragment MATCHES "\n")
      message(FATAL_ERROR "the record after the kill is too short to tear")
    endif()
    file(APPEND "${journal}" "${fragment}")
  endif()

  # Resume: replay the committed prefix, run the rest.
  execute_process(
    COMMAND ${CLI} explore --apps ${APPS} --resume ${journal} --jobs ${JOBS}
    RESULT_VARIABLE resume_rc
    OUTPUT_VARIABLE resume_out
    ERROR_VARIABLE resume_err
  )
  if(NOT resume_rc STREQUAL "0")
    message(FATAL_ERROR "resumed explore run failed (rc=${resume_rc})\n${resume_err}")
  endif()
  if(NOT resume_out STREQUAL clean_out)
    message(FATAL_ERROR
      "resumed report is not byte-identical to the uninterrupted run\n"
      "--- uninterrupted ---\n${clean_out}\n--- resumed ---\n${resume_out}")
  endif()
  file(READ "${journal}" resume_journal)
  if(NOT resume_journal STREQUAL clean_journal_bytes)
    message(FATAL_ERROR
      "resumed journal is not byte-identical to the uninterrupted run's\n"
      "--- uninterrupted ---\n${clean_journal_bytes}\n--- resumed ---\n${resume_journal}")
  endif()
elseif(MODE STREQUAL "chaos")
  if(NOT DEFINED CHAOS_SEED)
    message(FATAL_ERROR "chaos mode needs -DCHAOS_SEED=N")
  endif()
  execute_process(
    COMMAND ${CLI} explore --apps ${APPS} --chaos ${CHAOS_SEED} --retries 4
            --jobs ${JOBS}
    RESULT_VARIABLE chaos_rc
    OUTPUT_VARIABLE chaos_out
    ERROR_VARIABLE chaos_err
  )
  if(NOT chaos_rc STREQUAL "0")
    message(FATAL_ERROR "chaos explore run failed (rc=${chaos_rc})\n${chaos_err}")
  endif()
  if(NOT chaos_out STREQUAL clean_out)
    message(FATAL_ERROR
      "chaos report is not byte-identical to the clean run (seed ${CHAOS_SEED})\n"
      "--- clean ---\n${clean_out}\n--- chaos ---\n${chaos_out}")
  endif()
  if(NOT JOBS STREQUAL "1")
    execute_process(
      COMMAND ${CLI} explore --apps ${APPS} --chaos ${CHAOS_SEED} --retries 4 --jobs 1
      RESULT_VARIABLE seq_rc
      OUTPUT_VARIABLE seq_out
      ERROR_VARIABLE seq_err
    )
    if(NOT seq_rc STREQUAL "0")
      message(FATAL_ERROR "--jobs 1 chaos explore run failed (rc=${seq_rc})\n${seq_err}")
    endif()
    if(NOT chaos_err STREQUAL seq_err)
      message(FATAL_ERROR
        "--jobs ${JOBS} chaos stderr is not byte-identical to --jobs 1 (seed ${CHAOS_SEED})\n"
        "--- jobs 1 ---\n${seq_err}\n--- jobs ${JOBS} ---\n${chaos_err}")
    endif()
  endif()
elseif(MODE STREQUAL "jobs_identity")
  set(journal_seq "${WORKDIR}/identity_seq.jsonl")
  set(journal_par "${WORKDIR}/identity_par.jsonl")
  file(REMOVE "${journal_seq}" "${journal_par}")

  execute_process(
    COMMAND ${CLI} explore --apps ${APPS} --journal ${journal_seq} --jobs 1
    RESULT_VARIABLE seq_rc
    OUTPUT_VARIABLE seq_out
    ERROR_VARIABLE seq_err
  )
  if(NOT seq_rc STREQUAL "0")
    message(FATAL_ERROR "sequential journaled run failed (rc=${seq_rc})\n${seq_err}")
  endif()
  execute_process(
    COMMAND ${CLI} explore --apps ${APPS} --journal ${journal_par} --jobs ${JOBS}
    RESULT_VARIABLE par_rc
    OUTPUT_VARIABLE par_out
    ERROR_VARIABLE par_err
  )
  if(NOT par_rc STREQUAL "0")
    message(FATAL_ERROR
      "--jobs ${JOBS} journaled run failed (rc=${par_rc})\n${par_err}")
  endif()
  if(NOT par_out STREQUAL seq_out)
    message(FATAL_ERROR
      "--jobs ${JOBS} report is not byte-identical to --jobs 1\n"
      "--- jobs 1 ---\n${seq_out}\n--- jobs ${JOBS} ---\n${par_out}")
  endif()
  file(READ "${journal_seq}" seq_journal)
  file(READ "${journal_par}" par_journal)
  if(NOT par_journal STREQUAL seq_journal)
    message(FATAL_ERROR
      "--jobs ${JOBS} journal is not byte-identical to --jobs 1\n"
      "--- jobs 1 ---\n${seq_journal}\n--- jobs ${JOBS} ---\n${par_journal}")
  endif()
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
