import tracemalloc


def traced_peak(call):
    """The tracemalloc peak, in bytes, of one ``call()``; tracing stops even
    when the call raises."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance scoreboard after the run (stdout capture would
    otherwise swallow the PASS lines)."""
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
