pytest_plugins = ["pytester"]


def test_a_failing_property_test_does_not_stop_the_session(pytester, pytestconfig):
    # With every warning an error, hypothesis's report hook for a failing
    # @given test raised a deprecation warning and pytest stopped with
    # INTERNALERROR, so no later test ran.  The inner run gets the
    # filterwarnings list of pyproject.toml.
    filters = pytestconfig.getini("filterwarnings")
    assert "error" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(test_inner="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x != 0

        def test_runs_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
