def pytest_addoption(parser):
    parser.addoption(
        "--full",
        action="store_true",
        default=False,
        help="also run the multi-hour large-grid sweeps",
    )
